"""Pass-pipeline architecture: artifact store, scheduled passes, scan
sessions, batch scanning, the persistent cache.

* :mod:`repro.pipeline.artifacts` — the typed per-APK artifact store
  with build-on-demand and dependency-ordered builds;
* :mod:`repro.pipeline.passes` — pass ordering and scan planning from
  the checks' declared artifact reads;
* :mod:`repro.pipeline.scan` — scan sessions (one store per APK) and
  the session cache behind ``NChecker``;
* :mod:`repro.pipeline.batch` — the scan unit the CLI and the daemon
  share, and its process fan-out (``nchecker scan --jobs N``) with
  deterministic, input-order-stable output;
* :mod:`repro.pipeline.cachestore` — the library's persistent cross-run
  cache (``NCheckerOptions.cache_dir``; the CLI and the daemon never set
  it): content addressing, codec, and one local-directory blob store.
"""

from .artifacts import (
    ARTIFACTS,
    CALLGRAPH,
    CFG,
    DEFUSE,
    ICC_MODEL,
    REQUESTS,
    RETRY_LOOPS,
    SUMMARIES,
    ArtifactKey,
    ArtifactStore,
)
from .cachestore import CacheStore, LocalDirBackend
from .passes import ScanPlan, ScheduledPass, build_plan, order_passes, resolve_reads
from .scan import ScanSession, SessionCache

__all__ = [
    "ARTIFACTS",
    "CacheStore",
    "LocalDirBackend",
    "ArtifactKey",
    "ArtifactStore",
    "CALLGRAPH",
    "CFG",
    "DEFUSE",
    "ICC_MODEL",
    "REQUESTS",
    "RETRY_LOOPS",
    "SUMMARIES",
    "ScanPlan",
    "ScanSession",
    "ScheduledPass",
    "SessionCache",
    "build_plan",
    "order_passes",
    "resolve_reads",
]
