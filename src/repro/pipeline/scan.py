"""Scan sessions: the enabled checks run over one artifact store.

A :class:`ScanSession` owns the :class:`~repro.pipeline.artifacts.
ArtifactStore` of one APK.  A scan builds the app artifacts the enabled
checks declare in ``reads(options)`` (and the requests every check and
the result need), injects them into the shared ``AnalysisContext``, runs
the checks in :func:`~repro.core.checks.check_catalog` order, and
assembles the :class:`~repro.core.checker.ScanResult`.  The summary
engine answers each check's queries on demand.

A session's app never changes under it: the patch loop opens a fresh
session for every round.  :class:`SessionCache` gives ``NChecker`` its
repeat-scan behaviour (one session per package, reused only while the
app's content fingerprint matches, LRU-bounded for corpus sweeps).

Sessions are also where the library's **persistent cross-run cache**
(:mod:`repro.pipeline.cachestore`) plugs in, when a library caller sets
``NCheckerOptions.cache_dir`` (no CLI command or daemon worker does):
before the first check runs, every valid cached artifact for the app's
content fingerprint is adopted into the store (zero builds on a warm
run), and after each scan the artifacts the run had to build are written
back to the cache directory.  Output is byte-identical with the cache
hot, cold, or disabled — the cache only changes where artifacts come
from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..obs import metrics, span
from .artifacts import (
    ARTIFACTS,
    ICC_MODEL,
    REQUESTS,
    RETRY_LOOPS,
    SUMMARIES,
    THREADCONTEXT,
    ArtifactStore,
)

if TYPE_CHECKING:
    from ..app.apk import APK
    from ..core.checker import NCheckerOptions, ScanResult
    from ..libmodels.annotations import LibraryRegistry


class ScanSession:
    """One APK's checks over its artifact store."""

    def __init__(
        self,
        apk: "APK",
        registry: "LibraryRegistry",
        options: "NCheckerOptions",
    ) -> None:
        self.apk = apk
        self.registry = registry
        self.options = options
        self.store = ArtifactStore(apk, registry)
        from .cachestore import CacheStore

        #: Persistent cross-run cache, or ``None`` (no ``cache_dir`` in
        #: the options).
        self.artifact_cache = CacheStore.from_options(options)
        #: Artifact kinds already persisted — loaded from or written to
        #: the cache by this session — so repeat scans rewrite nothing.
        self._cache_synced: set[str] = set()
        self._app_fp: Optional[str] = None

    # -- check construction --------------------------------------------------

    def _build_checks(self):
        """Fresh instances of the enabled checks for one scan, in catalog
        order (their per-request info maps are part of the scan's
        result), plus the config and notification checks whose info the
        result assembly needs."""
        from ..core.checks import check_catalog

        opts = self.options
        enabled = opts.enabled_checks
        icc_model = None
        if opts.inter_component and (
            "connectivity" in enabled or "failure-notification" in enabled
        ):
            icc_model = self.store.get(ICC_MODEL)

        catalog = check_catalog(opts, icc_model=icc_model)
        by_name = {check.name: check for check in catalog}
        checks = [check for check in catalog if check.name in enabled]
        if opts.check_network_switch:
            from ..core.checks.network_switch import NetworkSwitchCheck

            checks.append(NetworkSwitchCheck())
        return checks, by_name["config-apis"], by_name["failure-notification"]

    # -- execution -----------------------------------------------------------

    def scan(self) -> "ScanResult":
        """Build the artifacts the enabled checks read, run the checks in
        catalog order, assemble the result.

        Each check runs inside a ``pass:<name>`` span and records its wall
        time, findings emitted, and methods visited (the call-graph
        universe it analyses) into the active metrics registry.
        """
        import time

        from ..core.checker import ScanResult
        from ..core.findings import Finding

        # Adopt persisted artifacts before check construction: the ICC
        # model is materialized inside _build_checks, so the preload must
        # already have happened for a warm run to stay build-free.
        self._preload_from_disk()
        checks, config_check, notification_check = self._build_checks()
        reads = {
            ARTIFACTS[name] for check in checks for name in check.reads(self.options)
        }
        store = self.store
        registry = metrics()

        with span("scan", package=self.apk.package):
            scan_start = time.perf_counter()
            ctx = store.context
            ctx.summaries = store.get(SUMMARIES) if SUMMARIES in reads else None
            if ctx.summaries is not None:
                ctx.summaries.eager = self.options.eager_summaries
            ctx.threadcontext = (
                store.get(THREADCONTEXT) if THREADCONTEXT in reads else None
            )
            requests = store.get(REQUESTS)
            retry_loops = store.get(RETRY_LOOPS) if RETRY_LOOPS in reads else []
            ctx.retry_loops = retry_loops

            findings: list[Finding] = []
            for check in checks:
                name = check.name
                with span(f"pass:{name}", package=self.apk.package):
                    start = time.perf_counter()
                    emitted = check.run(ctx, requests)
                    registry.observe(
                        f"pass.{name}.wall_ms",
                        (time.perf_counter() - start) * 1000.0,
                    )
                registry.inc(f"pass.{name}.runs")
                registry.inc(f"pass.{name}.findings", len(emitted))
                registry.inc(
                    f"pass.{name}.methods_visited", len(ctx.callgraph.methods)
                )
                findings.extend(emitted)
            registry.inc("scan.apps")
            registry.observe(
                "scan.wall_ms", (time.perf_counter() - scan_start) * 1000.0
            )

        self._persist_to_disk()
        findings.sort(key=lambda f: (f.method_key, f.stmt_index, f.kind.value))
        return ScanResult(
            self.apk,
            requests,
            findings,
            retry_loops,
            config_info=dict(config_check.info_by_request),
            notification_info=dict(notification_check.info_by_request),
        )

    # -- persistent cache ----------------------------------------------------

    def _content_fingerprint(self) -> str:
        """The app's content address, memoized for the session."""
        if self._app_fp is None:
            from .cachestore import app_content_fingerprint

            self._app_fp = app_content_fingerprint(self.apk)
        return self._app_fp

    def _preload_from_disk(self) -> None:
        if self.artifact_cache is None:
            return
        self._cache_synced.update(
            self.artifact_cache.load_into(
                self.store, self._content_fingerprint(), self.options
            )
        )

    def _persist_to_disk(self) -> None:
        if self.artifact_cache is None:
            return
        self._cache_synced.update(
            self.artifact_cache.store_from(
                self.store,
                self._content_fingerprint(),
                self.options,
                exclude=self._cache_synced,
            )
        )


@dataclass
class SessionCache:
    """One scan session per APK package, reused only for the same content.

    A repeat ``scan()`` of an unchanged app reuses the whole artifact
    store (call graph, CFGs, summaries, requests).  The cached session is
    served only when the app's content fingerprint
    (:func:`~repro.pipeline.cachestore.app_content_fingerprint`) matches
    the one taken when the session was opened, so any edit to a method
    body, a class header, the manifest or the package misses — a long-lived checker (a
    daemon worker) never answers for content other than what it was
    given, and an app mutated in place between scans is rescanned.  The
    fingerprint is memoised on the session, where the persistent cache
    reuses it as its content address.
    """

    max_entries: int = 64
    _sessions: dict[str, ScanSession] = field(default_factory=dict)

    def session_for(
        self,
        apk: "APK",
        registry: "LibraryRegistry",
        options: "NCheckerOptions",
    ) -> ScanSession:
        from .cachestore import app_content_fingerprint

        fingerprint = app_content_fingerprint(apk)
        session = self._sessions.pop(apk.package, None)
        if session is None or session._app_fp != fingerprint:
            session = ScanSession(apk, registry, options)
            session._app_fp = fingerprint
        # Re-inserting moves the package to the young end of the LRU.
        self._sessions[apk.package] = session
        while len(self._sessions) > self.max_entries:
            self._sessions.pop(next(iter(self._sessions)))
        return session
