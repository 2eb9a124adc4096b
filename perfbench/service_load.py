"""Open-loop load generation against a ``nchecker serve`` daemon.

One asyncio loop in the benchmark process plays every client.  Jobs
arrive on a seeded Poisson schedule fixed before the run starts, so a
slow daemon receives the same offered load as a fast one and its queue
grows instead of the load shrinking.  At most :data:`MAX_CONNECTIONS`
HTTP exchanges are open at any moment, one request each.

A job is ``POST /v1/scans``, then ``GET /v1/scans/{id}`` every
:data:`POLL_INTERVAL` seconds until the job finishes, then
``GET /v1/scans/{id}/findings``.  Its latency runs from when it was due
to when its findings arrived.  A scan takes about as long as one poll
interval, so each job's first poll comes after a seeded random fraction
of the interval: with one fixed phase, a few milliseconds more or less
of scan time would move every job by a whole interval at once.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Optional

MAX_CONNECTIONS = 2
POLL_INTERVAL = 0.010

#: Share of jobs that resubmit an app already sent.
RESUBMIT_SHARE = 0.3


@dataclass(frozen=True)
class Arrival:
    """One scheduled job: when it is due (seconds from the start of the
    run), which app it sends, which rate phase it belongs to, and the
    delay before its first poll."""

    due: float
    app: int
    phase: str
    resubmit: bool
    first_poll: float = POLL_INTERVAL


def schedule(rng: random.Random, phases: list[tuple[str, float, int]], gap: float) -> list[Arrival]:
    """Poisson arrivals for each ``(phase, rate, jobs)`` in turn, phases
    ``gap`` seconds apart.  About :data:`RESUBMIT_SHARE` of jobs resend
    an app sent earlier; the rest send the next fresh app (``0, 1, …``)."""
    arrivals: list[Arrival] = []
    clock = 0.0
    fresh = 0
    for name, rate, jobs in phases:
        for _ in range(jobs):
            clock += rng.expovariate(rate)
            first_poll = rng.uniform(0.0, POLL_INTERVAL)
            if fresh and rng.random() < RESUBMIT_SHARE:
                app, resubmit = rng.randrange(fresh), True
            else:
                app, resubmit = fresh, False
                fresh += 1
            arrivals.append(Arrival(clock, app, name, resubmit, first_poll))
        clock += gap
    return arrivals


@dataclass
class JobRecord:
    """What happened to one job.  Times are ``time.perf_counter`` seconds,
    except ``submitted_wall``, which is ``time.time`` (the clock the
    daemon's trace events use)."""

    arrival: Arrival
    due: float = 0.0
    sent: float = 0.0
    done: Optional[float] = None
    status: int = 0
    error: str = ""
    job_id: str = ""
    submitted_wall: float = 0.0
    submit_s: float = 0.0
    fetch_s: float = 0.0
    polls: int = 0
    findings: bytes = b""
    spans: dict = field(default_factory=dict)


async def _exchange(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        # Read by Content-Length, not to EOF: the daemon forks its pool
        # on the first submission, and the forked workers inherit that
        # connection, so its end-of-stream never arrives.
        header = await reader.readuntil(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await reader.readexactly(length)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return status, payload


class Client:
    """The shared connection budget all jobs draw from."""

    def __init__(self, port: int, connections: int = MAX_CONNECTIONS) -> None:
        self.port = port
        self._slots = asyncio.Semaphore(connections)

    async def call(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes, float]:
        """One exchange; returns status, body and when the slot was won."""
        async with self._slots:
            started = time.perf_counter()
            status, payload = await _exchange(self.port, method, path, body)
            return status, payload, started

    async def job(self, record: JobRecord, body: bytes) -> None:
        """Submit, poll to completion and fetch findings for one app."""
        status, payload, record.sent = await self.call("POST", "/v1/scans", body)
        record.submitted_wall = time.time()
        record.submit_s = time.perf_counter() - record.sent
        record.status = status
        if status != 202:
            record.error = f"submit answered {status}"
            return
        record.job_id = json.loads(payload)["id"]
        delay = record.arrival.first_poll
        while True:
            await asyncio.sleep(delay)
            delay = POLL_INTERVAL
            status, payload, _ = await self.call("GET", f"/v1/scans/{record.job_id}")
            record.polls += 1
            state = json.loads(payload).get("status") if status == 200 else None
            if state == "done":
                break
            if state not in ("queued", "running"):
                record.error = f"job {record.job_id} ended {state or status}"
                return
        status, payload, started = await self.call(
            "GET", f"/v1/scans/{record.job_id}/findings"
        )
        if status != 200:
            record.error = f"findings answered {status}"
            return
        record.done = time.perf_counter()
        record.fetch_s = record.done - started
        record.findings = payload


async def _run(port: int, arrivals: list[Arrival], bodies: list[bytes]) -> list[JobRecord]:
    client = Client(port)
    start = time.perf_counter() + 0.05
    records = [JobRecord(a, due=start + a.due) for a in arrivals]

    async def one(record: JobRecord) -> None:
        await asyncio.sleep(max(0.0, record.due - time.perf_counter()))
        try:
            await client.job(record, bodies[record.arrival.app])
        except (OSError, ValueError, IndexError, asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
            record.error = f"{type(exc).__name__}: {exc}"

    await asyncio.gather(*(one(record) for record in records))
    return records


def run_open_loop(port: int, arrivals: list[Arrival], bodies: list[bytes]) -> list[JobRecord]:
    """Play ``arrivals`` against the daemon on ``port``; ``bodies[i]`` is
    the ``.apkt`` text of app ``i``."""
    return asyncio.run(_run(port, arrivals, bodies))
