"""End-to-end daemon tests over real sockets.

Covers the full surface promised by ``docs/SERVICE.md``: submit → poll
→ fetch, byte-identical JSON/SARIF parity with the CLI on the same app,
queue-full and rate-limit rejection, the ``/metrics`` merge across a
multi-process pool, and a warm worker rescanning an edited resubmission.
"""

from __future__ import annotations

import concurrent.futures
import json
import socket
from pathlib import Path

import pytest

from repro.cli import main
from repro.service import ServiceConfig, start_in_thread

from .conftest import (
    app_builds,
    app_text,
    get_json,
    http,
    submit,
    submit_and_wait,
    wait_done,
)


@pytest.fixture(scope="module")
def daemon():
    """One warm daemon for the lifecycle tests: a single worker process,
    so resubmissions land on the same warm session."""
    handle = start_in_thread(ServiceConfig(port=0, workers=1))
    yield handle
    handle.stop()


class TestScanLifecycle:
    def test_submit_poll_fetch(self, daemon):
        status, _, body = submit(daemon.base_url, app_text("com.life.cycle"))
        assert status == 202
        accepted = json.loads(body)
        assert accepted["status"] == "queued"
        assert accepted["url"] == f"/v1/scans/{accepted['id']}"

        view = wait_done(daemon.base_url, accepted["id"])
        assert view["status"] == "done"
        assert view["package"] == "com.life.cycle"
        assert view["findings"] >= 1
        assert view["requests"] == 1
        assert view["result"]["package"] == "com.life.cycle"
        assert set(view["links"]) == {"findings", "sarif", "trace"}

    def test_json_envelope_submission_carries_the_filename(self, daemon):
        view = submit_and_wait(
            daemon.base_url, app_text("com.envelope.app"),
            filename="apps/envelope.apkt",
        )
        assert view["status"] == "done"
        assert view["filename"] == "apps/envelope.apkt"

    def test_trace_view_is_a_chrome_trace(self, daemon):
        view = submit_and_wait(daemon.base_url, app_text("com.trace.app"))
        trace = get_json(daemon.base_url + view["links"]["trace"])
        events = trace["traceEvents"] if isinstance(trace, dict) else trace
        assert any(event.get("name") == "load" for event in events)

    def test_warm_resubmission_builds_nothing(self, daemon):
        text = app_text("com.warm.resubmit")
        cold = submit_and_wait(daemon.base_url, text)
        assert cold["counters"].get("artifact.callgraph.builds") == 1

        warm = submit_and_wait(daemon.base_url, text)
        assert warm["status"] == "done"
        assert app_builds(warm["counters"]) == 0
        assert warm["findings"] == cold["findings"]

    def test_failed_scan_reports_the_error(self, daemon):
        view = submit_and_wait(daemon.base_url, "this is not an app\n")
        assert view["status"] == "failed"
        assert view["error"]
        status, _, body = http(
            "GET", daemon.base_url + f"/v1/scans/{view['id']}/findings"
        )
        assert status == 404
        assert b"failed" in body

    def test_healthz(self, daemon):
        health = get_json(daemon.base_url + "/healthz")
        assert health["status"] == "ok"
        assert health["workers"] == 1
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}


class TestFirstSubmission:
    def test_first_response_reaches_eof(self):
        """The worker pool starts during the first submission, while that
        client's connection is still open.  Workers must not inherit the
        socket, or the client reading to EOF never gets one."""
        handle = start_in_thread(ServiceConfig(port=0, workers=1))
        try:
            body = app_text("com.first.submission").encode()
            head = (
                "POST /v1/scans HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Content-Type: text/plain\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            )
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10
            ) as sock:
                sock.sendall(head.encode() + body)
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 202")
            job = json.loads(reply.partition(b"\r\n\r\n")[2])
            assert wait_done(handle.base_url, job["id"])["status"] == "done"
        finally:
            handle.stop()


class TestBadRequests:
    def test_empty_submission_is_400(self, daemon):
        status, _, body = http("POST", daemon.base_url + "/v1/scans", b"")
        assert status == 400
        assert b"empty submission" in body

    def test_json_submission_without_apkt_is_400(self, daemon):
        status, _, body = http(
            "POST", daemon.base_url + "/v1/scans",
            json.dumps({"filename": "x.apkt"}).encode(),
            {"Content-Type": "application/json"},
        )
        assert status == 400
        assert b"apkt" in body

    def test_non_utf8_submission_is_400(self, daemon):
        status, _, _ = http(
            "POST", daemon.base_url + "/v1/scans", b"\xff\xfe\x00\x01",
            {"Content-Type": "application/octet-stream"},
        )
        assert status == 400

    def test_unknown_job_is_404(self, daemon):
        status, _, _ = http(
            "GET", daemon.base_url + "/v1/scans/scan-999999-deadbeef"
        )
        assert status == 404

    def test_unknown_route_is_404(self, daemon):
        assert http("GET", daemon.base_url + "/v2/nope")[0] == 404

    def test_clients_cannot_write_the_workers_cache(self, daemon):
        """No route accepts client bytes as cache entries: a cache entry
        is a pickle, and workers keep no disk cache to put one in."""
        path = "/v1/cache/" + "a" * 40 + "/callgraph/" + "0" * 32
        status, _, _ = http("PUT", daemon.base_url + path, b"NCKC payload")
        assert status == 404
        assert http("GET", daemon.base_url + path)[0] == 404

    def test_submitting_with_get_is_405(self, daemon):
        assert http("GET", daemon.base_url + "/v1/scans")[0] == 405

    def test_scan_resources_are_read_only(self, daemon):
        view = submit_and_wait(daemon.base_url, app_text("com.readonly.app"))
        status, _, _ = http(
            "DELETE", daemon.base_url + f"/v1/scans/{view['id']}"
        )
        assert status == 405


class TestCliParity:
    """The acceptance bar: service bytes == CLI bytes, same app."""

    @pytest.fixture()
    def app_file(self, tmp_path):
        path = tmp_path / "parity.apkt"
        path.write_text(app_text("com.parity.app"))
        return path

    def test_findings_json_is_byte_identical(self, daemon, app_file, capsys):
        main(["scan", "--json", str(app_file)])
        cli_bytes = capsys.readouterr().out.encode("utf-8")

        view = submit_and_wait(
            daemon.base_url, app_file.read_text(), filename=str(app_file)
        )
        status, headers, body = http(
            "GET", daemon.base_url + view["links"]["findings"]
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert body == cli_bytes

    def test_sarif_is_byte_identical(self, daemon, app_file, tmp_path):
        sarif_file = tmp_path / "cli.sarif"
        main(["scan", "--sarif", str(sarif_file), str(app_file)])

        view = submit_and_wait(
            daemon.base_url, app_file.read_text(), filename=str(app_file)
        )
        status, _, body = http(
            "GET", daemon.base_url + view["links"]["sarif"]
        )
        assert status == 200
        assert body == sarif_file.read_bytes()


class ManualExecutor:
    """A pool whose jobs only finish when the test says so — makes the
    admission-control paths deterministic."""

    def __init__(self):
        self.pending = []

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        self.pending.append((future, fn, args))
        return future

    def release_all(self):
        for future, fn, args in self.pending:
            future.set_result(fn(*args))
        self.pending.clear()

    def shutdown(self, wait=True, cancel_futures=False):
        self.pending.clear()


class TestAdmissionControl:
    @pytest.fixture()
    def stalled(self):
        """A daemon whose pool never finishes until released."""
        executor = ManualExecutor()
        handle = start_in_thread(ServiceConfig(
            port=0, queue_depth=2, rate_limit=0.001, rate_burst=1,
            executor_factory=lambda workers: executor,
        ))
        yield handle, executor
        executor.release_all()
        handle.stop()

    def test_queue_full_is_503_until_the_backlog_drains(self, stalled):
        handle, executor = stalled
        text = app_text("com.queue.app")
        first = json.loads(submit(handle.base_url, text, tenant="a")[2])
        second = json.loads(submit(handle.base_url, text, tenant="b")[2])

        status, headers, body = submit(handle.base_url, text, tenant="c")
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert b"queue is full" in body
        counters = get_json(handle.base_url + "/metrics")["counters"]
        assert counters["service.scans.rejected.queue_full"] == 1

        executor.release_all()
        wait_done(handle.base_url, first["id"])
        wait_done(handle.base_url, second["id"])
        # A fresh tenant: "c" spent its only token on the 503 attempt
        # (rate admission runs before the queue check).
        assert submit(handle.base_url, text, tenant="d")[0] == 202

    def test_rate_limit_is_429_per_tenant(self, stalled):
        handle, _ = stalled
        text = app_text("com.rate.app")
        assert submit(handle.base_url, text, tenant="noisy")[0] == 202

        status, headers, body = submit(handle.base_url, text, tenant="noisy")
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert b"submission rate" in body

        # A different tenant has its own bucket.
        assert submit(handle.base_url, text, tenant="quiet")[0] == 202
        counters = get_json(handle.base_url + "/metrics")["counters"]
        assert counters["service.scans.rejected.rate_limited"] == 1


class TestMetricsMerge:
    def test_metrics_merge_scan_snapshots_across_the_pool(self):
        handle = start_in_thread(ServiceConfig(port=0, workers=2))
        try:
            ids = []
            for package in ("com.pool.one", "com.pool.two"):
                _, _, body = submit(handle.base_url, app_text(package))
                ids.append(json.loads(body)["id"])
            for job_id in ids:
                assert wait_done(handle.base_url, job_id)["status"] == "done"

            snapshot = get_json(handle.base_url + "/metrics")
            counters = snapshot["counters"]
            assert counters["service.scans.submitted"] == 2
            assert counters["service.scans.completed"] == 2
            # Worker-side counters merged into the daemon view: both cold
            # scans built their callgraphs, whichever process ran them.
            assert counters["artifact.callgraph.builds"] == 2
            assert counters["service.http.requests"] >= 4
            assert "profile" in snapshot
        finally:
            handle.stop()


class InlineExecutor:
    """A pool that runs each job at once in the daemon's own process, so
    every submission lands on the same warm checker."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


UPLOADER = Path(__file__).resolve().parents[2] / "examples" / "apps" / "uploader.apkt"


class TestEditedResubmission:
    """An edit that keeps every method's statement count — or touches
    only a class header — must still be rescanned: the warm worker's
    session is keyed by app content."""

    @pytest.mark.parametrize(
        "old,new",
        [
            ("BasicHttpClient#get(", "BasicHttpClient#post("),
            ("#getActiveNetworkInfo(", "#getActiveNetworkInfoNow("),
            (" implements com.loopj.android.http.AsyncHttpResponseHandler", ""),
        ],
        ids=["request-method", "renamed-call", "class-header"],
    )
    def test_findings_match_a_cli_scan_of_the_edit(
        self, old, new, tmp_path, capsys
    ):
        original = UPLOADER.read_text()
        edited = tmp_path / "uploader.apkt"
        edited.write_text(original.replace(old, new))
        assert edited.read_text() != original
        main(["scan", "--json", str(edited)])
        cli_bytes = capsys.readouterr().out.encode("utf-8")

        handle = start_in_thread(ServiceConfig(
            port=0,
            executor_factory=lambda workers: InlineExecutor(),
        ))
        try:
            first = submit_and_wait(
                handle.base_url, original, filename=str(edited)
            )
            second = submit_and_wait(
                handle.base_url, edited.read_text(), filename=str(edited)
            )
            assert first["status"] == second["status"] == "done"
            _, _, first_body = http(
                "GET", handle.base_url + first["links"]["findings"]
            )
            status, _, body = http(
                "GET", handle.base_url + second["links"]["findings"]
            )
        finally:
            handle.stop()
        assert status == 200
        assert first_body != cli_bytes  # the edit changes the findings
        assert body == cli_bytes
