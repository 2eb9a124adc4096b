"""Cache entry addressing, listings, stats, and size parsing.

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
  intermediate (a temp file plus ``os.replace``).  Parallel ``--jobs``
  workers sharing a cache directory therefore race benignly.
* **Corruption is a miss.**  The store returns blob bytes verbatim; the
  codec's magic/version/checksum header is what detects a damaged
  entry, and the caller then ``delete``\\ s it so the rebuilt
  artifact's ``put`` replaces it.
* **Eviction grace.**  ``gc`` never removes an entry younger than
  ``grace_seconds`` (default :data:`GC_GRACE_SECONDS`): a concurrent
  scanner that just published an entry must not lose it to a garbage
  collection racing the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``gc`` keeps entries written within this many seconds regardless of
#: the size budget, so a collection racing a live scan cannot drop an
#: in-flight entry (override per call; the CLI exposes ``--min-age``).
GC_GRACE_SECONDS = 60.0


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


@dataclass(frozen=True)
class EntryInfo:
    """One stored entry, as enumerated by ``list_entries``."""

    key: EntryKey
    size: int
    mtime: float


# ---------------------------------------------------------------------------
# Sizes (gc budgets, stats rendering)
# ---------------------------------------------------------------------------

_SIZE_UNITS = {"B": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def parse_size(text: str) -> int:
    """``"512M"`` / ``"1.5G"`` / ``"512m"`` / ``"4096"`` → bytes.

    Accepts fractional values and case-insensitive ``K/M/G/T`` (and
    ``B``) suffixes; :func:`format_size` output always round-trips
    through this parser."""
    text = text.strip()
    multiplier = 1
    if text and text[-1].upper() in _SIZE_UNITS:
        multiplier = _SIZE_UNITS[text[-1].upper()]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"unparsable size: {text!r} (use e.g. 512M, 1.5G)")
    if value < 0:
        raise ValueError("size must be non-negative")
    return int(value * multiplier)


def format_size(n: int) -> str:
    """Human size, guaranteed to ``parse_size`` back to within one
    rendered decimal (``1536 -> "1.5K" -> 1536``)."""
    for unit, width in (("G", 1 << 30), ("M", 1 << 20), ("K", 1 << 10)):
        if n >= width:
            return f"{n / width:.1f}{unit}"
    return f"{n}B"


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """What ``nchecker cache stats`` prints: aggregate entry counts and
    bytes, broken down per artifact kind (so cache growth is
    attributable)."""

    label: str
    apps: int
    entries: int
    total_bytes: int
    #: kind -> (entry count, bytes)
    by_kind: dict[str, tuple[int, int]]

    def render(self) -> str:
        lines = [f"cache {self.label}"]
        lines.append(
            f"  {self.entries} "
            f"entr{'y' if self.entries == 1 else 'ies'} "
            f"for {self.apps} app(s), {format_size(self.total_bytes)}"
        )
        for kind in sorted(self.by_kind):
            count, size = self.by_kind[kind]
            lines.append(f"  {kind:<13} {count:>5}  {format_size(size)}")
        return "\n".join(lines)
