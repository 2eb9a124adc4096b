"""The session-facing cache: artifacts in, artifacts out.

:class:`CacheStore` is what a :class:`~repro.pipeline.scan.ScanSession`
holds when its options name a ``cache_dir``: it owns the addressing
(:mod:`.fingerprints`), the serialization (:mod:`.codec`), and the
telemetry, and keeps the bytes in one
:class:`~repro.pipeline.cachestore.local.LocalDirBackend` directory.
No CLI command or daemon worker sets ``cache_dir``; library callers and
the perfbench replay do.

Telemetry: ``cache.local.<kind>.hits`` / ``.misses`` counters and
``cache.local.<kind>.load_ms`` / ``.store_ms`` timers land in the
metrics registry active during the load or store, riding the same
snapshot/merge protocol as every other counter.  A write counts one miss
(the cache could not supply the artifact, so the scan built it), which
makes ``hits/(hits+misses)`` the hit rate; an unusable entry also counts
``cache.local.errors``.
"""

from __future__ import annotations

import pickle
import time
from typing import TYPE_CHECKING, Optional

from ...callgraph.entrypoints import method_key
from ...obs import get_logger
from ..artifacts import (
    CALLGRAPH,
    ICC_MODEL,
    REQUESTS,
    RETRY_LOOPS,
    SUMMARIES,
    THREADCONTEXT,
    ArtifactKey,
    ArtifactStore,
    set_callgraph_gauges,
)
from .backend import EntryKey
from .codec import CacheMiss, decode_artifact, encode_artifact
from .fingerprints import entry_digest
from .local import LocalDirBackend

if TYPE_CHECKING:
    from ...core.checker import NCheckerOptions

log = get_logger("cachestore")

#: App-scoped artifacts in load/store order (dependencies first).
_APP_ARTIFACT_ORDER: tuple[ArtifactKey, ...] = (
    CALLGRAPH,
    REQUESTS,
    SUMMARIES,
    RETRY_LOOPS,
    ICC_MODEL,
    THREADCONTEXT,
)


class CacheStore:
    """Persistent artifact cache over one local directory."""

    def __init__(self, backend: LocalDirBackend) -> None:
        self.backend = backend

    @classmethod
    def from_options(cls, options: "NCheckerOptions") -> Optional["CacheStore"]:
        """The cache under ``options.cache_dir``, or ``None`` when the
        options name no cache directory."""
        if not options.cache_dir:
            return None
        return cls(LocalDirBackend(options.cache_dir))

    def entry_key(
        self, app_fp: str, kind: str, registry, options: "NCheckerOptions"
    ) -> EntryKey:
        return EntryKey(
            app_fp, kind, entry_digest(kind, app_fp, registry, options)
        )

    # -- session API ---------------------------------------------------------

    def load_into(
        self, store: ArtifactStore, app_fp: str, options: "NCheckerOptions"
    ) -> set[str]:
        """Adopt every valid cached artifact for ``store``'s app, in
        dependency order; returns the kinds loaded.

        Kinds already present in the store are left alone.  Invalid
        entries (truncated, corrupt, wrong version, dangling references)
        are deleted and treated as misses — the caller rebuilds on demand
        and :meth:`store_from` overwrites them.
        """
        loaded: set[str] = set()
        methods: Optional[dict] = None
        for key in _APP_ARTIFACT_ORDER:
            if store.peek(key) is not None:
                continue
            entry = self.entry_key(app_fp, key.name, store.registry, options)
            blob = self.backend.get(entry)
            if blob is None:
                continue
            if methods is None:
                methods = {method_key(m): m for m in store.apk.methods()}
            start = time.perf_counter()
            try:
                value = decode_artifact(blob, store, methods)
            except CacheMiss as exc:
                log.info(
                    "cache entry %s/%s unusable (%s): rebuilding",
                    app_fp[:12], key.name, exc,
                )
                store._count(f"cache.local.{key.name}.misses")
                store._count("cache.local.errors")
                self.backend.delete(entry)
                continue
            store.adopt(key, value)
            store._count(f"cache.local.{key.name}.hits")
            store._observe(
                f"cache.local.{key.name}.load_ms",
                (time.perf_counter() - start) * 1000.0,
            )
            if key.name == "callgraph":
                set_callgraph_gauges(value)
            loaded.add(key.name)
        return loaded

    def store_from(
        self,
        store: ArtifactStore,
        app_fp: str,
        options: "NCheckerOptions",
        exclude: set[str] = frozenset(),
    ) -> set[str]:
        """Persist the store's built app-scoped artifacts (everything
        present and not in ``exclude`` — the kinds already synced with
        this fingerprint); returns the kinds written.

        Every entry written counts one ``cache.local.<kind>.misses`` —
        the cache could not supply the artifact, so the scan built it.
        """
        present = {
            key.name: store.peek(key)
            for key in _APP_ARTIFACT_ORDER
            if store.peek(key) is not None
        }
        artifact_ids = {id(value): name for name, value in present.items()}
        written: set[str] = set()
        for key in _APP_ARTIFACT_ORDER:
            value = present.get(key.name)
            if value is None or key.name in exclude:
                continue
            entry = self.entry_key(app_fp, key.name, store.registry, options)
            ids = dict(artifact_ids)
            del ids[id(value)]  # the dumped artifact itself is no reference
            start = time.perf_counter()
            try:
                blob = encode_artifact(store, value, ids)
            except pickle.PicklingError as exc:
                log.warning("cannot encode cache entry %s: %s", key.name, exc)
                continue
            if not self.backend.put(entry, blob):
                continue  # the write failed; retried next run
            store._count(f"cache.local.{key.name}.misses")
            store._observe(
                f"cache.local.{key.name}.store_ms",
                (time.perf_counter() - start) * 1000.0,
            )
            written.add(key.name)
        return written
