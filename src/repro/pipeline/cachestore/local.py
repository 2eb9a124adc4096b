"""The local-directory blob store: the cache's one tier.

Layout (format-compatible with every cache the pre-split disk cache
wrote):

    <root>/v<FORMAT>/<app_fp[:2]>/<app_fp>/<kind>-<digest>.bin

one directory per app fingerprint (the per-APK cache files that
``--jobs`` workers share), one entry file per artifact kind and
declared-options subset.  Writes go through a temp file plus
:func:`os.replace`, so parallel workers sharing one directory race
benignly: readers see either the old or the new complete entry, never a
torn one.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path
from typing import Optional

from ...obs import get_logger
from . import fingerprints
from .backend import GC_GRACE_SECONDS, CacheStats, EntryInfo, EntryKey

log = get_logger("cachestore.local")


class LocalDirBackend:
    """Content-addressed blob store over one local directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalDirBackend({str(self.root)!r})"

    # -- paths ---------------------------------------------------------------

    @property
    def _version_root(self) -> Path:
        # Read through the module so a format bump (or a test's
        # monkeypatch) moves the path and the old tree becomes garbage,
        # not a crash.
        return self.root / f"v{fingerprints.CACHE_FORMAT_VERSION}"

    def app_dir(self, app_fp: str) -> Path:
        return self._version_root / app_fp[:2] / app_fp

    def entry_path(self, key: EntryKey) -> Path:
        return self.app_dir(key.app_fp) / key.filename

    # -- blob store ----------------------------------------------------------

    def get(self, key: EntryKey) -> Optional[bytes]:
        """The stored blob, or ``None`` when absent or unreadable."""
        path = self.entry_path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            log.debug("cache read failed for %s: %s", path, exc)
            return None

    def put(self, key: EntryKey, blob: bytes) -> bool:
        """Store ``blob`` atomically; ``False`` when the write failed."""
        path = self.entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        except OSError as exc:
            log.warning("cannot write cache entry %s: %s", path, exc)
            return False
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError as exc:
            log.warning("cannot write cache entry %s: %s", path, exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return True

    def delete(self, key: EntryKey) -> bool:
        """Drop ``key``'s entry; ``False`` when there was none."""
        try:
            self.entry_path(key).unlink()
        except OSError:
            return False
        return True

    # -- enumeration / management --------------------------------------------

    def _entry_files(self) -> list[Path]:
        """Every entry file under every format-version directory (stats,
        gc, and clear cover stale ``v<N>`` trees too)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.glob("v*/??/*/*.bin") if p.is_file()
        )

    def list_entries(self) -> list[EntryInfo]:
        entries = []
        for path in self._entry_files():
            kind, _, digest = path.stem.rpartition("-")
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append(EntryInfo(
                EntryKey(path.parent.name, kind, digest),
                st.st_size, st.st_mtime,
            ))
        return entries

    def stats(self) -> CacheStats:
        """Entry counts and bytes, in total and per artifact kind."""
        by_kind: dict[str, tuple[int, int]] = {}
        apps: set[str] = set()
        total = 0
        entries = self.list_entries()
        for info in entries:
            count, kind_bytes = by_kind.get(info.key.kind, (0, 0))
            by_kind[info.key.kind] = (count + 1, kind_bytes + info.size)
            apps.add(info.key.app_fp)
            total += info.size
        return CacheStats(
            f"local {self.root}", len(apps), len(entries), total, by_kind
        )

    def gc(
        self, max_bytes: int, grace_seconds: float = GC_GRACE_SECONDS
    ) -> tuple[int, int]:
        """Evict least-recently-written entries until the cache fits
        ``max_bytes``, never touching entries younger than
        ``grace_seconds``; returns ``(entries removed, bytes freed)``."""
        files = []
        for p in self._entry_files():
            try:
                files.append((p, p.stat()))
            except OSError:
                continue
        total = sum(st.st_size for _p, st in files)
        files.sort(key=lambda pair: pair[1].st_mtime)  # oldest first
        fresh_after = time.time() - grace_seconds
        removed = 0
        freed = 0
        for path, st in files:
            if total <= max_bytes:
                break
            if st.st_mtime > fresh_after:
                # Within the grace window: a concurrent scanner may have
                # just published this entry — never evict it mid-flight.
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= st.st_size
            freed += st.st_size
            removed += 1
        self._prune_empty_dirs()
        return removed, freed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entry_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        self._prune_empty_dirs()
        return removed

    def _prune_empty_dirs(self) -> None:
        if not self.root.is_dir():
            return
        for directory in sorted(
            (p for p in self.root.glob("v*/**/") if p.is_dir()),
            key=lambda p: len(p.parts),
            reverse=True,
        ):
            try:
                directory.rmdir()  # fails (correctly) unless empty
            except OSError:
                pass
