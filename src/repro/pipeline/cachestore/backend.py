"""The ``CacheBackend`` protocol: the narrow seam every cache tier
implements.

A backend is a content-addressed blob store.  It never interprets entry
payloads — serialization lives in :mod:`.codec`, addressing in
:mod:`.fingerprints` — it only moves opaque ``bytes`` under an
:class:`EntryKey`.  Four implementations ship today
(:class:`~repro.pipeline.cachestore.local.LocalDirBackend`,
:class:`~repro.pipeline.cachestore.memory.MemoryBackend`,
:class:`~repro.pipeline.cachestore.remote.RemoteBackend` — the
HTTP tier served by the ``nchecker serve`` daemon — and
:class:`~repro.pipeline.cachestore.tiered.TieredBackend`); each plugs
in behind the same five methods without touching the pipeline.

Semantics every backend MUST honour (enforced by the shared conformance
suite in ``tests/pipeline/test_cachestore.py``):

* **Best-effort, never raising.**  ``get`` returns ``None`` for an
  absent *or unreadable* entry; ``put`` returns the tiers actually
  written — possibly empty on I/O failure — and ``delete`` the number
  of copies removed.  Storage trouble degrades to a miss or a skipped
  write, never an exception out of the backend.
* **Atomic publication.**  A concurrent reader of ``put`` sees either
  the previous complete blob or the new complete blob, never a torn
  intermediate (the local backend writes a temp file and
  ``os.replace``\\ s it; the in-memory backend relies on atomic dict
  assignment).  Parallel ``--jobs`` workers sharing a backend therefore
  race benignly.
* **Corruption is a miss.**  Backends return blob bytes verbatim; the
  codec's magic/version/checksum header is what detects a damaged
  entry.  After the caller reports one (by ``delete``-ing the key), the
  backend must actually drop it so the rebuilt artifact's ``put``
  replaces it everywhere.
* **Eviction grace.**  ``gc`` never removes an entry younger than
  ``grace_seconds`` (default :data:`GC_GRACE_SECONDS`): a concurrent
  scanner that just published an entry must not lose it to a garbage
  collection racing the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

#: ``gc`` keeps entries written within this many seconds regardless of
#: the size budget, so a collection racing a live scan cannot drop an
#: in-flight entry (override per call; the CLI exposes ``--min-age``).
GC_GRACE_SECONDS = 60.0


@dataclass(frozen=True)
class EntryKey:
    """Backend-independent address of one cache entry.

    ``app_fp`` is the app content fingerprint, ``kind`` the artifact
    kind, ``digest`` the :func:`~repro.pipeline.cachestore.fingerprints.
    entry_digest` folding registry/options state.  The same key names
    the same entry on every backend — that is what lets a tiered
    composition promote and write through without translation.
    """

    app_fp: str
    kind: str
    digest: str

    @property
    def filename(self) -> str:
        """Canonical file name (the on-disk layout every local-style
        backend shares, and the pre-split disk cache wrote)."""
        return f"{self.kind}-{self.digest}.bin"


@dataclass(frozen=True)
class EntryInfo:
    """One stored entry, as enumerated by ``list_entries``."""

    key: EntryKey
    size: int
    mtime: float
    #: Name of the tier holding this copy (tiered backends enumerate
    #: every tier, so one key may appear once per tier).
    tier: str


@dataclass(frozen=True)
class GetResult:
    """A successful ``get``: the blob plus its provenance.

    ``tier`` names the tier that served the bytes — the namespace the
    caller's ``cache.<tier>.<kind>.hits`` accounting lands in.
    ``promoted`` names the faster tiers the entry was copied into on the
    way out (read-through promotion), counted as
    ``cache.<tier>.<kind>.promotions``.
    """

    blob: bytes
    tier: str
    promoted: tuple[str, ...] = ()


@runtime_checkable
class CacheBackend(Protocol):
    """What a cache tier must provide.  See the module docstring for the
    atomicity / corruption / grace semantics conformance requires."""

    #: Short tier name; namespaces this backend's metrics
    #: (``cache.<name>.*``) and labels its stats section.
    name: str

    def get(self, key: EntryKey) -> Optional[GetResult]:
        """The stored blob for ``key``, or ``None`` when absent or
        unreadable (an I/O error is a miss, never an exception)."""
        ...

    def put(self, key: EntryKey, blob: bytes) -> tuple[str, ...]:
        """Store ``blob`` under ``key`` atomically; returns the names of
        the tiers actually written (empty when every write failed —
        best-effort, the caller simply retries next run)."""
        ...

    def delete(self, key: EntryKey) -> int:
        """Drop every copy of ``key``; returns the number removed."""
        ...

    def list_entries(self) -> list[EntryInfo]:
        """Every stored entry (every per-tier copy), for stats/gc."""
        ...

    def stats(self) -> "CacheStats":
        """Aggregate entry counts and sizes (per kind, per tier)."""
        ...

    def gc(
        self, max_bytes: int, grace_seconds: float = GC_GRACE_SECONDS
    ) -> tuple[int, int]:
        """Evict least-recently-written entries until the backend fits
        ``max_bytes``, never touching entries younger than
        ``grace_seconds``; returns ``(entries removed, bytes freed)``."""
        ...

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        ...


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
    attributable) and — for tiered backends — per tier."""

    label: str
    apps: int
    entries: int
    total_bytes: int
    #: kind -> (entry count, bytes)
    by_kind: dict[str, tuple[int, int]]
    #: Per-tier sections (tiered backends only).
    tiers: list["CacheStats"] = field(default_factory=list)

    def render(self, indent: str = "") -> str:
        lines = [f"{indent}cache {self.label}"]
        lines.append(
            f"{indent}  {self.entries} "
            f"entr{'y' if self.entries == 1 else 'ies'} "
            f"for {self.apps} app(s), {format_size(self.total_bytes)}"
        )
        for kind in sorted(self.by_kind):
            count, size = self.by_kind[kind]
            lines.append(f"{indent}  {kind:<13} {count:>5}  {format_size(size)}")
        for tier in self.tiers:
            lines.append(tier.render(indent + "  ").replace(
                f"{indent}  cache ", f"{indent}  tier ", 1))
        return "\n".join(lines)


def stats_from_entries(label: str, entries: list[EntryInfo]) -> CacheStats:
    """Fold a ``list_entries`` result into a :class:`CacheStats` — the
    shared accounting every single-tier backend uses."""
    by_kind: dict[str, tuple[int, int]] = {}
    apps: set[str] = set()
    total = 0
    for info in entries:
        count, kind_bytes = by_kind.get(info.key.kind, (0, 0))
        by_kind[info.key.kind] = (count + 1, kind_bytes + info.size)
        apps.add(info.key.app_fp)
        total += info.size
    return CacheStats(label, len(apps), len(entries), total, by_kind)
