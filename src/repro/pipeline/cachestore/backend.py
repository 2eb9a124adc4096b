"""Cache entry addressing.

A cache entry is an opaque blob under an :class:`EntryKey`.  The blob
store (:class:`~repro.pipeline.cachestore.local.LocalDirBackend`) never
interprets payloads — serialization lives in :mod:`.codec`, addressing
in :mod:`.fingerprints`.  Its semantics (enforced by
``tests/pipeline/test_cachestore.py``):

* **Best-effort, never raising.**  ``get`` returns ``None`` for an
  absent *or unreadable* entry; ``put`` returns whether the blob was
  written — ``False`` on I/O failure.  Storage trouble degrades to a
  miss or a skipped write, never an exception.
* **Atomic publication.**  A concurrent reader of ``put`` sees either
  the previous complete blob or the new complete blob, never a torn
  intermediate (a temp file plus ``os.replace``), so library callers
  sharing one cache directory race benignly.
* **Corruption is a miss.**  The store returns blob bytes verbatim; the
  codec's magic/version/checksum header is what detects a damaged
  entry, and the caller then ``delete``\\ s it so the rebuilt
  artifact's ``put`` replaces it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EntryKey:
    """Address of one cache entry.

    ``app_fp`` is the app content fingerprint, ``kind`` the artifact
    kind, ``digest`` the :func:`~repro.pipeline.cachestore.fingerprints.
    entry_digest` folding registry/options state.
    """

    app_fp: str
    kind: str
    digest: str

    @property
    def filename(self) -> str:
        """Canonical file name (the on-disk layout the pre-split disk
        cache wrote)."""
        return f"{self.kind}-{self.digest}.bin"

