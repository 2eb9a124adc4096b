"""Transport-layer tests: the hand-rolled HTTP/1.1 core in isolation.

Each test boots a real :class:`HttpServer` on a free port inside a
private event loop and talks to it with raw bytes over a socket — no
urllib niceties — so malformed input paths are exercised exactly as a
hostile client would produce them.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.http import (
    MAX_HEADER_BYTES,
    HttpServer,
    ProtocolError,
    json_response,
    parse_size,
)


async def echo(request):
    return json_response({
        "method": request.method,
        "path": request.path,
        "query": request.query,
        "content_type": request.headers.get("content-type", ""),
        "body": request.body.decode("utf-8", "replace"),
    })


async def crash(request):
    raise RuntimeError("boom")


async def reject(request):
    raise ProtocolError(400, "handler says no")


def exchange(raw: bytes, handler=echo, max_body: int = 1024) -> bytes:
    """Send raw bytes to a fresh server, return the raw reply."""

    async def run() -> bytes:
        server = HttpServer(handler, max_body_bytes=max_body)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(raw)
            await writer.drain()
            writer.write_eof()
            reply = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            return reply
        finally:
            await server.close()

    return asyncio.run(run())


def request_bytes(method="GET", target="/", body=b"", headers=()):
    lines = [f"{method} {target} HTTP/1.1", "Host: t"]
    lines += [f"{name}: {value}" for name, value in headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return head + body


def status_of(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


def body_of(reply: bytes) -> bytes:
    return reply.split(b"\r\n\r\n", 1)[1]


class TestRoundTrips:
    def test_get_reaches_the_handler(self):
        reply = exchange(request_bytes(target="/v1/scans/abc"))
        assert status_of(reply) == 200
        echoed = json.loads(body_of(reply))
        assert echoed["method"] == "GET"
        assert echoed["path"] == "/v1/scans/abc"

    def test_body_and_content_type_round_trip(self):
        reply = exchange(request_bytes(
            "POST", "/v1/scans", b"hello body",
            headers=[("Content-Type", "text/plain")],
        ))
        echoed = json.loads(body_of(reply))
        assert echoed["body"] == "hello body"
        assert echoed["content_type"] == "text/plain"

    def test_query_string_and_percent_encoding(self):
        reply = exchange(request_bytes(target="/a%20b?x=1&y=two"))
        echoed = json.loads(body_of(reply))
        assert echoed["path"] == "/a b"
        assert echoed["query"] == {"x": "1", "y": "two"}

    def test_reply_closes_the_connection(self):
        reply = exchange(request_bytes())
        head = reply.split(b"\r\n\r\n", 1)[0].decode("latin-1").lower()
        assert "connection: close" in head
        assert f"content-length: {len(body_of(reply))}" in head

    def test_response_body_ends_in_newline(self):
        # json_response appends one so the findings endpoint can match
        # the CLI's print() byte for byte.
        assert body_of(exchange(request_bytes())).endswith(b"}\n")


class TestMalformedInput:
    def test_garbage_request_line_is_400(self):
        reply = exchange(b"NOT A REQUEST\r\n\r\n")
        assert status_of(reply) == 400

    def test_wrong_protocol_version_is_400(self):
        reply = exchange(b"GET / SPDY/9\r\n\r\n")
        assert status_of(reply) == 400

    def test_header_line_without_colon_is_400(self):
        reply = exchange(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n")
        assert status_of(reply) == 400

    @pytest.mark.parametrize("length", ["banana", "-5"])
    def test_malformed_content_length_is_400(self, length):
        reply = exchange(
            b"GET / HTTP/1.1\r\nContent-Length: "
            + length.encode() + b"\r\n\r\n"
        )
        assert status_of(reply) == 400

    def test_truncated_body_is_400(self):
        reply = exchange(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        assert status_of(reply) == 400

    def test_truncated_head_is_400(self):
        reply = exchange(b"GET / HTTP/1.1\r\nHost: t")
        assert status_of(reply) == 400

    def test_clean_eof_sends_nothing(self):
        assert exchange(b"") == b""


class TestLimits:
    def test_oversized_body_is_413(self):
        reply = exchange(request_bytes("POST", "/", b"x" * 2048), max_body=1024)
        assert status_of(reply) == 413

    def test_body_at_the_limit_passes(self):
        reply = exchange(request_bytes("POST", "/", b"x" * 1024), max_body=1024)
        assert status_of(reply) == 200

    def test_oversized_header_block_is_413(self):
        filler = b"X-Pad: " + b"y" * (MAX_HEADER_BYTES + 1024) + b"\r\n"
        reply = exchange(b"GET / HTTP/1.1\r\n" + filler + b"\r\n")
        assert status_of(reply) == 413


class TestHandlerFailures:
    def test_handler_crash_is_a_500(self):
        reply = exchange(request_bytes(), handler=crash)
        assert status_of(reply) == 500
        assert b"internal server error" in body_of(reply)

    def test_protocol_error_from_handler_keeps_its_status(self):
        reply = exchange(request_bytes(), handler=reject)
        assert status_of(reply) == 400
        assert b"handler says no" in body_of(reply)


class TestSizes:
    @pytest.mark.parametrize(
        "text,expected",
        [("4096", 4096), ("1K", 1024), ("1.5M", 1536 * 1024),
         ("2G", 2 << 30), (" 512m ", 512 << 20), ("0", 0),
         ("1.5G", 3 << 29), ("512m", 512 << 20), ("0.5k", 512),
         ("2.5t", int(2.5 * (1 << 40))), ("100B", 100), ("3.25", 3)],
    )
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "garbage", "-1", "1X5", "-2G",
                                     "G", "1.2.3M"])
    def test_parse_size_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)
