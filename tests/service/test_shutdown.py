"""``nchecker serve`` stopped by SIGTERM shuts its worker pool down.

Boots the real CLI daemon in a subprocess, completes one scan (which
starts the process pool), then sends SIGTERM the way a service manager
or CI step does.  The daemon must exit cleanly and take every process it
started with it: the multiprocessing forkserver and its worker must not
outlive it.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from .conftest import app_text, http, submit_and_wait

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name: state, ppid, ...;
    ``None`` once the process is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def _descendants(root: int) -> set[int]:
    """Every live process below ``root`` (children, grandchildren, ...)."""
    parent_of = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None:
                parent_of[int(entry.name)] = int(fields[1])
    found: set[int] = set()
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child, parent in parent_of.items():
            if parent == pid and child not in found:
                found.add(child)
                frontier.append(child)
    return found


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _wait_healthy(base_url: str, daemon: subprocess.Popen) -> None:
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if daemon.poll() is not None:
            raise AssertionError(f"daemon exited early: {daemon.returncode}")
        try:
            status, _, _ = http("GET", f"{base_url}/healthz", timeout=2.0)
        except OSError:
            status = None
        if status == 200:
            return
        time.sleep(0.1)
    raise AssertionError("daemon never answered /healthz")


def test_sigterm_shuts_the_worker_pool_down():
    port = _free_port()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--workers", "1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    children: set[int] = set()
    try:
        base_url = f"http://127.0.0.1:{port}"
        _wait_healthy(base_url, daemon)
        assert submit_and_wait(base_url, app_text())["status"] == "done"
        children = _descendants(daemon.pid)
        assert children, "a finished scan leaves the worker pool running"

        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30) == 0
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in children):
            if time.monotonic() > deadline:
                break
            time.sleep(0.1)
        left = sorted(pid for pid in children if _alive(pid))
        assert not left, f"processes outlived the daemon: {left}"
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        for pid in children:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
