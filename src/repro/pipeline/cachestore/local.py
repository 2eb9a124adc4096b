"""The local-directory blob store: the cache's one tier.

Layout (format-compatible with every cache the pre-split disk cache
wrote):

    <root>/v<FORMAT>/<app_fp[:2]>/<app_fp>/<kind>-<digest>.bin

one directory per app fingerprint, one entry file per artifact kind and
declared-options subset.  Writes go through a temp file plus
:func:`os.replace`, so processes sharing one directory race benignly:
readers see either the old or the new complete entry, never a torn one.
The store has no eviction: whoever names a ``cache_dir`` (a library
caller, the perfbench replay) owns the directory and removes it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Optional

from ...obs import get_logger
from . import fingerprints
from .backend import EntryKey

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
