"""Pipeline architecture: artifact store, scan sessions, batch scanning,
the persistent cache.

* :mod:`repro.pipeline.artifacts` — the typed per-APK artifact store
  with build-on-demand and dependency-ordered builds;
* :mod:`repro.pipeline.scan` — scan sessions (one store per APK, the
  enabled checks run in catalog order) and the session cache behind
  ``NChecker``;
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
    "ScanSession",
    "SessionCache",
]
