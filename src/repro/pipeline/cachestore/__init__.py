"""The persistent artifact cache (``--cache-dir`` / ``nchecker cache``).

One tier — a local directory — split along its concerns:

* :mod:`~repro.pipeline.cachestore.fingerprints` — content addressing:
  app/registry/options fingerprints and the per-entry digest;
* :mod:`~repro.pipeline.cachestore.codec` — serialization: the
  persistent-id pickler rewiring live session objects, plus the
  magic/version/checksum header enforcing corruption-is-a-miss;
* :mod:`~repro.pipeline.cachestore.backend` — entry keys, entry
  listings, stats and size parsing;
* :mod:`~repro.pipeline.cachestore.local` — :class:`LocalDirBackend`,
  the on-disk blob store (format-compatible with pre-split caches).

:class:`CacheStore` (:mod:`~repro.pipeline.cachestore.store`) ties them
together for the scan session.  The user-facing guide is
``docs/CACHING.md``.
"""

from .backend import (
    GC_GRACE_SECONDS,
    CacheStats,
    EntryInfo,
    EntryKey,
    format_size,
    parse_size,
)
from .codec import CacheMiss, decode_artifact, encode_artifact
from .fingerprints import (
    CACHE_FORMAT_VERSION,
    OPTIONS_READ_BY,
    app_content_fingerprint,
    entry_digest,
    method_content_hash,
    options_fingerprint,
    registry_fingerprint,
)
from .local import LocalDirBackend
from .store import CacheStore

__all__ = [
    "CACHE_FORMAT_VERSION",
    "GC_GRACE_SECONDS",
    "OPTIONS_READ_BY",
    "CacheMiss",
    "CacheStats",
    "CacheStore",
    "EntryInfo",
    "EntryKey",
    "LocalDirBackend",
    "app_content_fingerprint",
    "decode_artifact",
    "encode_artifact",
    "entry_digest",
    "format_size",
    "method_content_hash",
    "options_fingerprint",
    "parse_size",
    "registry_fingerprint",
]
