"""The persistent artifact cache, a library feature.

No CLI command or daemon worker reads or writes it: a scan persists
artifacts only when its ``NCheckerOptions.cache_dir`` names a directory,
which library callers and the perfbench replay do (``docs/ARCHITECTURE.md``
explains why the CLI has no disk cache).  One tier — a local directory —
split along its concerns:

* :mod:`~repro.pipeline.cachestore.fingerprints` — content addressing:
  app/registry/options fingerprints and the per-entry digest;
* :mod:`~repro.pipeline.cachestore.codec` — serialization: the
  persistent-id pickler rewiring live session objects, plus the
  magic/version/checksum header enforcing corruption-is-a-miss;
* :mod:`~repro.pipeline.cachestore.backend` — entry keys;
* :mod:`~repro.pipeline.cachestore.local` — :class:`LocalDirBackend`,
  the on-disk blob store (format-compatible with pre-split caches).

:class:`CacheStore` (:mod:`~repro.pipeline.cachestore.store`) ties them
together for the scan session.
"""

from .backend import EntryKey
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
    "OPTIONS_READ_BY",
    "CacheMiss",
    "CacheStore",
    "EntryKey",
    "LocalDirBackend",
    "app_content_fingerprint",
    "decode_artifact",
    "encode_artifact",
    "entry_digest",
    "method_content_hash",
    "options_fingerprint",
    "registry_fingerprint",
]
