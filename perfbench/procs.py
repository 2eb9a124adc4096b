"""Running the program under test: ``nchecker`` CLI processes and the
``nchecker serve`` daemon, each started from the checkout's ``src``."""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: Seconds a daemon gets to answer its first ``/healthz`` or to exit.
DAEMON_TIMEOUT = 30.0


def program_env(root: Path, work: Path, cache_dir: Optional[Path]) -> dict:
    """Environment for a program process: the checkout's sources, temp
    files inside the work dir, and the given cache dir (never the user's,
    and never a run ledger)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work)
    env.pop("NCHECKER_LEDGER_DIR", None)
    env.pop("NCHECKER_CACHE_DIR", None)
    if cache_dir is not None:
        env["NCHECKER_CACHE_DIR"] = str(cache_dir)
    return env


@dataclass(frozen=True)
class Exit:
    """One finished process: wall seconds from spawn to reaped exit, exit
    code, and peak resident set in MB."""

    wall: float
    code: int
    rss_mb: float


def _reap(proc: subprocess.Popen, started: float) -> Exit:
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def run_python(args: list[str], env: dict, stdout_path: Optional[Path] = None) -> Exit:
    """Run ``python <args>`` to completion, stdout to a file or nowhere."""
    sink = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, stdout=sink,
            stderr=subprocess.DEVNULL,
        )
        return _reap(proc, started)
    finally:
        if stdout_path:
            sink.close()


def run_scan(apps: list[Path], env: dict, stdout_path: Path) -> Exit:
    """One ``nchecker scan --json`` process with default flags."""
    return run_python(
        ["-m", "repro.cli", "scan", "--json", *map(str, apps)], env, stdout_path
    )


def _vm_hwm_mb(pid: int) -> float:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
    return int(match.group(1)) / 1024.0 if match else 0.0


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            kids.extend(int(k) for k in (task / "children").read_text().split())
        except OSError:
            continue
    return kids


class Daemon:
    """A ``nchecker serve`` subprocess on a free loopback port."""

    def __init__(self, env: dict) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        self.port = 0
        self.peak_rss_mb = 0.0

    def wait_ready(self) -> None:
        """Block until the daemon reports its port and ``/healthz`` is 200."""
        deadline = time.monotonic() + DAEMON_TIMEOUT
        for line in self._proc.stderr:
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                break
        if not self.port:
            raise RuntimeError("daemon exited before it served")
        # Keep draining stderr so a chatty daemon never blocks on the pipe.
        import threading

        threading.Thread(
            target=self._proc.stderr.read, name="daemon-stderr", daemon=True
        ).start()
        while time.monotonic() < deadline:
            try:
                status, _ = self.request("GET", "/healthz")
            except OSError:
                status = 0
            if status == 200:
                return
            time.sleep(0.01)
        raise RuntimeError("daemon never became healthy")

    def request(self, method: str, path: str, body: bytes = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def sample_rss(self) -> None:
        """Fold the daemon's and its pool workers' peak RSS so far into
        :attr:`peak_rss_mb` (workers exit with the daemon, so sample
        before stopping it)."""
        pids = [self._proc.pid, *_children(self._proc.pid)]
        self.peak_rss_mb = max([self.peak_rss_mb, *map(_vm_hwm_mb, pids)])

    def stop(self) -> None:
        """Interrupt the daemon and reap it; if it hangs, kill it and its
        pool workers."""
        if self._proc.returncode is not None:
            return
        workers = []
        if self._proc.poll() is None:
            self.sample_rss()
            workers = _children(self._proc.pid)
            self._proc.send_signal(signal.SIGINT)
        try:
            self._proc.wait(timeout=DAEMON_TIMEOUT)
        except subprocess.TimeoutExpired:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self._proc.kill()
            self._proc.wait()
