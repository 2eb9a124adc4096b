"""The function the daemon dispatches to its worker pool.

A worker runs the same scan unit as ``nchecker scan``
(:func:`repro.pipeline.batch.scan_one`), so the findings document a
client fetches is byte-identical to ``nchecker scan --json`` on the same
APK, by construction.  The only difference is the checker's lifetime:
:func:`execute_scan` keeps one :class:`~repro.core.checker.NChecker` per
options profile in module state, so a worker process carries its
``SessionCache`` across requests — a resubmission with the same content
fingerprint reuses the whole in-memory artifact store, and an edited
resubmission gets a fresh session.  Workers never read or write a disk
cache.  Telemetry stays per task: the unit captures a fresh
tracer/registry pair for each scan, and a warm store records its
``artifact.*`` counts into whichever registry is active, so each job's
snapshot carries its own hits.
"""

from __future__ import annotations

from ..core.checker import NCheckerOptions
from ..pipeline.batch import ScanPayload, ScanTask, scan_one

#: One warm checker per options profile, living as long as the worker
#: process — the daemon's "persistent pool" promise.  Keyed by the
#: frozen options dataclass itself.
_CHECKERS: dict = {}


def _checker_for(options: NCheckerOptions):
    from ..core.checker import NChecker

    checker = _CHECKERS.get(options)
    if checker is None:
        checker = _CHECKERS[options] = NChecker(options=options)
    return checker


def execute_scan(task: ScanTask) -> ScanPayload:
    """The scan unit with this process's warm checker for the task's
    options.  Module-level so a ``ProcessPoolExecutor`` can dispatch it;
    also callable in-process (tests inject stub executors that do exactly
    that)."""
    return scan_one(task, _checker_for(task.options))
