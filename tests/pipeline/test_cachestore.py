"""Conformance suite for the cache-store backends.

One shared battery of tests runs against every :class:`CacheBackend`
implementation — ``local``, ``memory``, a ``memory+local`` tier chain,
and ``remote`` (a live ``nchecker serve`` daemon per test, spoken to
over a real socket) — so the protocol semantics documented in
:mod:`repro.pipeline.cachestore.backend` (best-effort never raising,
atomic publication, corruption-is-a-miss, gc grace) are enforced, not
aspirational.  On top of the protocol battery:

* scan-level tests proving a warm re-scan does **zero** app-scoped
  builds on every backend, with hits attributed to the serving tier;
* tiered promotion / write-through semantics;
* format compatibility: ``LocalDirBackend`` reads a cache laid out by
  the pre-split disk-cache formula, and the entry header is pinned
  byte-for-byte;
* CLI byte-identity across ``--cache-backend`` specs (disabled / cold /
  warm, with and without ``--jobs``).
"""

import hashlib
import json
import struct

import pytest

from repro.app import save_apk
from repro.app.loader import dumps_apk, loads_apk
from repro.cli import main
from repro.core import NChecker
from repro.core.checker import NCheckerOptions
from repro.corpus.snippets import Connectivity, Notification, RequestSpec
from repro.pipeline.cachestore import (
    CACHE_FORMAT_VERSION,
    CacheBackend,
    CacheStore,
    EntryKey,
    LocalDirBackend,
    MemoryBackend,
    RemoteBackend,
    TieredBackend,
    app_content_fingerprint,
    backend_from_spec,
    entry_digest,
    shared_memory_backend,
)
from repro.service import ServiceConfig, start_in_thread
from tests.conftest import single_request_app

APP_KINDS = ("callgraph", "summaries", "requests", "retry-loops", "icc-model")
PERSISTED_KINDS = ("callgraph", "summaries", "requests", "retry-loops")
BACKEND_PARAMS = ("local", "memory", "tiered", "remote")
#: The tier a warm hit is attributed to, per parametrized backend (the
#: tiered composition serves from its fastest tier after write-through).
SERVING_TIER = {
    "local": "local", "memory": "memory", "tiered": "memory",
    "remote": "remote",
}


def make_backend(kind: str, tmp_path, request=None) -> CacheBackend:
    if kind == "local":
        return LocalDirBackend(tmp_path / "cache")
    if kind == "memory":
        return MemoryBackend()
    if kind == "remote":
        # A real daemon per test: the conformance battery talks to its
        # /v1/cache blueprint over an actual socket.
        handle = start_in_thread(
            ServiceConfig(port=0, cache_dir=str(tmp_path / "served"))
        )
        assert request is not None, "remote backend needs fixture teardown"
        request.addfinalizer(handle.stop)
        return RemoteBackend(handle.base_url)
    return TieredBackend([MemoryBackend(), LocalDirBackend(tmp_path / "cache")])


@pytest.fixture(params=BACKEND_PARAMS)
def backend(request, tmp_path) -> CacheBackend:
    return make_backend(request.param, tmp_path, request)


def key(kind="summaries", app_fp="a" * 40, digest="0123456789abcdef") -> EntryKey:
    return EntryKey(app_fp, kind, digest)


def unique_keys(backend) -> set[EntryKey]:
    return {info.key for info in backend.list_entries()}


def fresh_apk():
    apk, _ = single_request_app(RequestSpec())
    return apk


def finding_sigs(result) -> list[tuple]:
    return [
        (f.kind, f.method_key, f.stmt_index, f.message) for f in result.findings
    ]


def scan_with(backend, apk=None):
    """One fresh-process-equivalent scan against a live backend object."""
    options = NCheckerOptions(cache_backend=backend)
    checker = NChecker(options=options)
    session = checker.open_session(apk if apk is not None else fresh_apk())
    return session.scan(), session


def app_builds(session) -> dict[str, int]:
    return {kind: session.store.counters.builds_of(kind) for kind in APP_KINDS}


def counter(session, name: str) -> int:
    return session.store.metrics.counter_value(name)


# ---------------------------------------------------------------------------
# The shared protocol battery — every backend must pass every test.
# ---------------------------------------------------------------------------


class TestBackendConformance:
    def test_satisfies_the_protocol(self, backend):
        assert isinstance(backend, CacheBackend)
        assert backend.name

    def test_get_absent_is_none(self, backend):
        assert backend.get(key()) is None

    def test_put_get_round_trip(self, backend):
        k = key()
        written = backend.put(k, b"payload")
        assert written  # at least one tier took the write
        result = backend.get(k)
        assert result is not None
        assert result.blob == b"payload"
        assert result.tier in written

    def test_overwrite_replaces(self, backend):
        k = key()
        backend.put(k, b"old")
        backend.put(k, b"new-and-longer")
        assert backend.get(k).blob == b"new-and-longer"
        assert unique_keys(backend) == {k}
        assert all(
            info.size == len(b"new-and-longer") for info in backend.list_entries()
        )

    def test_delete_drops_every_copy(self, backend):
        k = key()
        copies = len(backend.put(k, b"x"))
        assert backend.delete(k) == copies
        assert backend.get(k) is None
        assert backend.delete(k) == 0  # idempotent, best-effort

    def test_distinct_digests_coexist(self, backend):
        """Two entries differing only in digest (same app, same kind —
        e.g. two options profiles) must never collide."""
        k1 = key(digest="1111111111111111")
        k2 = key(digest="2222222222222222")
        backend.put(k1, b"one")
        backend.put(k2, b"two")
        assert backend.get(k1).blob == b"one"
        assert backend.get(k2).blob == b"two"

    def test_list_entries_and_stats_agree(self, backend):
        keys = [
            key(kind="summaries", digest="d1" * 8),
            key(kind="callgraph", digest="d2" * 8),
            key(kind="callgraph", app_fp="b" * 40, digest="d3" * 8),
        ]
        for k in keys:
            backend.put(k, b"abcdef")
        entries = backend.list_entries()
        assert unique_keys(backend) == set(keys)
        stats = backend.stats()
        assert stats.entries == len(entries)
        assert stats.total_bytes == sum(info.size for info in entries)
        assert stats.apps == 2
        assert set(stats.by_kind) == {"summaries", "callgraph"}
        rendered = stats.render()
        assert "summaries" in rendered and "callgraph" in rendered

    def test_gc_spares_entries_inside_the_grace_window(self, backend):
        backend.put(key(), b"fresh")
        removed, freed = backend.gc(0)  # default grace: just-written survives
        assert (removed, freed) == (0, 0)
        assert backend.get(key()) is not None

    def test_gc_without_grace_enforces_the_budget(self, backend):
        copies = 0
        for i in range(3):
            copies += len(backend.put(key(digest=f"{i:016d}"), b"x" * 10))
        removed, freed = backend.gc(0, grace_seconds=0)
        assert removed == copies
        assert freed == copies * 10
        assert backend.list_entries() == []

    def test_gc_noop_when_under_budget(self, backend):
        backend.put(key(), b"small")
        assert backend.gc(1 << 30, grace_seconds=0) == (0, 0)
        assert backend.get(key()) is not None

    def test_clear_empties_everything(self, backend):
        copies = 0
        for i in range(3):
            copies += len(backend.put(key(digest=f"{i:016d}"), b"x"))
        assert backend.clear() == copies
        assert backend.list_entries() == []
        assert backend.stats().entries == 0

    def test_clear_on_empty_backend(self, backend):
        assert backend.clear() == 0


# ---------------------------------------------------------------------------
# Local-backend specifics: atomic publication and I/O-failure behaviour.
# ---------------------------------------------------------------------------


class TestLocalBackendEdgeCases:
    def test_put_leaves_no_temp_files(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "cache")
        for i in range(5):
            backend.put(key(digest=f"{i:016d}"), b"payload")
        leftovers = [
            p for p in (tmp_path / "cache").rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_put_failure_is_a_skipped_write_not_an_exception(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("in the way")
        backend = LocalDirBackend(blocker)  # root is a file: every mkdir fails
        assert backend.put(key(), b"x") == ()
        assert backend.get(key()) is None

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "cache")
        k = key()
        # A directory squatting on the entry path: read_bytes -> OSError.
        backend.entry_path(k).mkdir(parents=True)
        assert backend.get(k) is None

    def test_stats_on_missing_root(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "never-created")
        assert backend.stats().entries == 0
        assert backend.gc(0, grace_seconds=0) == (0, 0)
        assert backend.clear() == 0


# ---------------------------------------------------------------------------
# Tiered semantics: write-through, read-through promotion.
# ---------------------------------------------------------------------------


class TestTieredSemantics:
    def test_put_writes_through_every_tier(self, tmp_path):
        fast = MemoryBackend()
        slow = LocalDirBackend(tmp_path / "slow")
        tiered = TieredBackend([fast, slow])
        assert tiered.name == "memory+local"
        assert tiered.put(key(), b"blob") == ("memory", "local")
        assert fast.get(key()).blob == b"blob"
        assert slow.get(key()).blob == b"blob"

    def test_get_promotes_into_faster_tiers(self, tmp_path):
        fast = MemoryBackend()
        slow = LocalDirBackend(tmp_path / "slow")
        tiered = TieredBackend([fast, slow])
        slow.put(key(), b"blob")  # only the slow tier holds it

        first = tiered.get(key())
        assert first.tier == "local"
        assert first.promoted == ("memory",)
        assert fast.get(key()).blob == b"blob"  # promoted copy landed

        second = tiered.get(key())
        assert second.tier == "memory"  # now served closer
        assert second.promoted == ()

    def test_delete_reaches_promoted_copies(self, tmp_path):
        fast = MemoryBackend()
        slow = LocalDirBackend(tmp_path / "slow")
        tiered = TieredBackend([fast, slow])
        slow.put(key(), b"blob")
        tiered.get(key())  # promote
        assert tiered.delete(key()) == 2
        assert fast.get(key()) is None and slow.get(key()) is None

    def test_rejects_duplicate_tier_names(self):
        with pytest.raises(ValueError, match="distinct"):
            TieredBackend([MemoryBackend(), MemoryBackend()])

    def test_rejects_empty_tier_list(self):
        with pytest.raises(ValueError):
            TieredBackend([])

    def test_stats_carries_per_tier_sections(self, tmp_path):
        tiered = TieredBackend(
            [MemoryBackend(), LocalDirBackend(tmp_path / "slow")]
        )
        tiered.put(key(), b"blob")
        stats = tiered.stats()
        assert [s.label.split()[0] for s in stats.tiers] == ["memory", "local"]
        assert stats.entries == 2  # one copy per tier
        rendered = stats.render()
        assert "tier memory" in rendered and "tier local" in rendered


# ---------------------------------------------------------------------------
# Scan-level behaviour: every backend gives build-free warm re-scans with
# correctly attributed telemetry, and corruption degrades to a rebuild.
# ---------------------------------------------------------------------------


class TestWarmScanEveryBackend:
    @pytest.fixture(params=BACKEND_PARAMS)
    def setup(self, request, tmp_path):
        backend = make_backend(request.param, tmp_path, request)
        return backend, SERVING_TIER[request.param]

    def test_warm_rescan_is_build_free(self, setup):
        backend, serving = setup
        apk = fresh_apk()
        cold_result, cold_session = scan_with(backend, apk)
        assert cold_session.store.counters.builds_of("callgraph") == 1

        warm_result, warm_session = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert app_builds(warm_session) == dict.fromkeys(APP_KINDS, 0)
        for kind in PERSISTED_KINDS:
            assert counter(warm_session, f"cache.{serving}.{kind}.hits") == 1
        assert finding_sigs(warm_result) == finding_sigs(cold_result)

    def test_output_matches_uncached_scan(self, setup):
        backend, _serving = setup
        apk = fresh_apk()
        baseline, _ = scan_with(None, loads_apk(dumps_apk(apk)))
        cold, _ = scan_with(backend, apk)
        warm, _ = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert (
            finding_sigs(baseline) == finding_sigs(cold) == finding_sigs(warm)
        )

    def test_cold_scan_counts_one_miss_per_tier_written(self, setup):
        backend, _serving = setup
        _result, session = scan_with(backend)
        tiers = (
            [t.name for t in backend.tiers]
            if isinstance(backend, TieredBackend)
            else [backend.name]
        )
        for tier in tiers:
            assert counter(session, f"cache.{tier}.callgraph.misses") == 1
            assert counter(session, f"cache.{tier}.callgraph.hits") == 0


class TestCorruptionEveryBackend:
    @pytest.fixture(params=BACKEND_PARAMS)
    def setup(self, request, tmp_path):
        backend = make_backend(request.param, tmp_path, request)
        return backend, SERVING_TIER[request.param]

    def summaries_key(self, backend) -> EntryKey:
        [k] = {i.key for i in backend.list_entries() if i.key.kind == "summaries"}
        return k

    def test_garbage_blob_is_a_miss_and_gets_repaired(self, setup):
        backend, serving = setup
        apk = fresh_apk()
        cold_result, _ = scan_with(backend, apk)
        k = self.summaries_key(backend)
        backend.put(k, b"complete garbage, not even a header")

        result, session = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert session.store.counters.builds_of("summaries") == 1
        assert counter(session, f"cache.{serving}.summaries.misses") >= 1
        assert counter(session, f"cache.{serving}.errors") == 1
        # The bad entry was dropped from every tier and the rebuilt
        # artifact re-published — the next reader gets a valid blob.
        repaired = backend.get(k)
        assert repaired is not None and repaired.blob[:4] == b"NCKC"

    def test_header_version_mismatch_is_a_miss(self, setup):
        backend, _serving = setup
        apk = fresh_apk()
        cold_result, _ = scan_with(backend, apk)
        k = self.summaries_key(backend)
        stale = bytearray(backend.get(k).blob)
        struct.pack_into(">I", stale, 4, CACHE_FORMAT_VERSION + 1)
        backend.put(k, bytes(stale))

        result, session = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert session.store.counters.builds_of("summaries") == 1

    def test_flipped_payload_byte_is_a_miss(self, setup):
        backend, _serving = setup
        apk = fresh_apk()
        cold_result, _ = scan_with(backend, apk)
        k = self.summaries_key(backend)
        flipped = bytearray(backend.get(k).blob)
        flipped[-1] ^= 0xFF
        backend.put(k, bytes(flipped))

        result, session = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert session.store.counters.builds_of("summaries") == 1


class TestTieredScanTelemetry:
    def test_local_hits_promote_then_memory_serves(self, tmp_path):
        """Cold-populate the local tier alone, then scan through
        memory+local: the first warm scan hits local and promotes, the
        second is served entirely from memory."""
        root = tmp_path / "cache"
        apk = fresh_apk()
        scan_with(LocalDirBackend(root), apk)

        memory = MemoryBackend()
        tiered = TieredBackend([memory, LocalDirBackend(root)])
        _r, promoted_session = scan_with(tiered, loads_apk(dumps_apk(apk)))
        assert app_builds(promoted_session) == dict.fromkeys(APP_KINDS, 0)
        for kind in PERSISTED_KINDS:
            assert counter(promoted_session, f"cache.local.{kind}.hits") == 1
            assert (
                counter(promoted_session, f"cache.memory.{kind}.promotions") == 1
            )

        _r, memory_session = scan_with(tiered, loads_apk(dumps_apk(apk)))
        assert app_builds(memory_session) == dict.fromkeys(APP_KINDS, 0)
        for kind in PERSISTED_KINDS:
            assert counter(memory_session, f"cache.memory.{kind}.hits") == 1
            assert counter(memory_session, f"cache.local.{kind}.hits") == 0


# ---------------------------------------------------------------------------
# Format compatibility: the local backend and the pre-split disk cache
# speak the same on-disk dialect.
# ---------------------------------------------------------------------------


class TestPreSplitFormatCompat:
    def test_entry_layout_is_pinned_to_the_pre_split_formula(self, tmp_path):
        """Entries land at <root>/v<FMT>/<fp[:2]>/<fp>/<kind>-<digest>.bin —
        literally the path the pre-split disk cache computed — so
        existing caches keep working across the split."""
        cache_dir = tmp_path / "cache"
        apk = fresh_apk()
        options = NCheckerOptions(cache_dir=str(cache_dir))
        session = NChecker(options=options).open_session(apk)
        session.scan()

        fp = app_content_fingerprint(apk)
        for kind in PERSISTED_KINDS:
            digest = entry_digest(kind, fp, session.registry, options)
            expected = (
                cache_dir
                / f"v{CACHE_FORMAT_VERSION}"
                / fp[:2]
                / fp
                / f"{kind}-{digest}.bin"
            )
            assert expected.is_file(), f"{kind} entry not at the legacy path"

    def test_entry_header_is_pinned_byte_for_byte(self, tmp_path):
        """Magic ``NCKC``, big-endian format version, blake2b-128 payload
        checksum — asserted against raw bytes, not the codec's own
        constants, so a silent format change fails loudly here."""
        backend = LocalDirBackend(tmp_path / "cache")
        scan_with(backend)
        blob = backend.get(next(iter(unique_keys(backend)))).blob
        assert blob[:4] == b"NCKC"
        (version,) = struct.unpack(">I", blob[4:8])
        assert version == CACHE_FORMAT_VERSION
        assert blob[8:24] == hashlib.blake2b(blob[24:], digest_size=16).digest()

    def test_local_backend_reads_a_transplanted_legacy_cache(self, tmp_path):
        """Simulate inheriting a cache directory written before the split:
        entry files placed by hand at the legacy path formula (bypassing
        ``LocalDirBackend.put``) must give a build-free warm scan."""
        apk = fresh_apk()
        options = NCheckerOptions(cache_dir=str(tmp_path / "writer"))
        writer = NChecker(options=options).open_session(apk)
        cold_result = writer.scan()

        fp = app_content_fingerprint(apk)
        legacy_root = tmp_path / "legacy"
        for kind in PERSISTED_KINDS:
            name = f"{kind}-{entry_digest(kind, fp, writer.registry, options)}.bin"
            src = (
                tmp_path / "writer" / f"v{CACHE_FORMAT_VERSION}" / fp[:2] / fp / name
            )
            dst = legacy_root / f"v{CACHE_FORMAT_VERSION}" / fp[:2] / fp / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(src.read_bytes())

        result, session = scan_with(
            LocalDirBackend(legacy_root), loads_apk(dumps_apk(apk))
        )
        assert app_builds(session) == dict.fromkeys(APP_KINDS, 0)
        assert finding_sigs(result) == finding_sigs(cold_result)


# ---------------------------------------------------------------------------
# Spec parsing and options resolution.
# ---------------------------------------------------------------------------


class TestBackendSpecs:
    def test_local_with_root(self, tmp_path):
        backend = backend_from_spec("local", local_root=str(tmp_path))
        assert isinstance(backend, LocalDirBackend)
        assert backend.root == tmp_path

    def test_local_with_inline_dir(self, tmp_path):
        backend = backend_from_spec(f"local:{tmp_path}")
        assert isinstance(backend, LocalDirBackend)
        assert backend.root == tmp_path

    def test_memory_resolves_to_the_shared_instance(self):
        assert backend_from_spec("memory") is shared_memory_backend()

    def test_tier_chain(self, tmp_path):
        backend = backend_from_spec(f"memory+local:{tmp_path}")
        assert isinstance(backend, TieredBackend)
        assert backend.name == "memory+local"
        assert backend.tiers[0] is shared_memory_backend()

    def test_whitespace_around_tiers_is_tolerated(self, tmp_path):
        backend = backend_from_spec(f" memory + local:{tmp_path} ")
        assert backend.name == "memory+local"

    def test_remote_with_url(self):
        backend = backend_from_spec("remote:http://cache.internal:8321")
        assert isinstance(backend, RemoteBackend)
        assert backend.base_url == "http://cache.internal:8321/v1/cache"

    def test_remote_url_keeps_an_explicit_api_path(self):
        backend = backend_from_spec("remote:https://host/v1/cache")
        assert backend.base_url == "https://host/v1/cache"

    def test_remote_chain_with_memory(self, tmp_path):
        backend = backend_from_spec(
            f"memory+local:{tmp_path}+remote:http://host:1"
        )
        assert isinstance(backend, TieredBackend)
        assert backend.name == "memory+local+remote"
        assert isinstance(backend.tiers[2], RemoteBackend)

    def test_remote_without_url_rejected(self):
        with pytest.raises(ValueError, match="needs a server URL"):
            backend_from_spec("remote")

    def test_remote_with_non_http_url_rejected(self):
        with pytest.raises(ValueError, match="needs a server URL"):
            backend_from_spec("remote:ftp://host/cache")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown cache backend tier"):
            backend_from_spec("redis")

    def test_memory_with_argument_rejected(self):
        with pytest.raises(ValueError, match="memory takes no argument"):
            backend_from_spec("memory:/tmp/x")

    def test_pathless_local_without_root_rejected(self):
        with pytest.raises(ValueError, match="needs a directory"):
            backend_from_spec("local")

    def test_duplicate_tiers_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            backend_from_spec("memory+memory")


class TestRemoteBackendDegradation:
    """A dead or lying cache server must degrade to a miss, never an
    exception — a scan with the fleet cache down finishes exactly like
    an uncached one."""

    @pytest.fixture()
    def dead(self, tmp_path):
        # Bind a port, then close it: connections are refused after.
        handle = start_in_thread(ServiceConfig(port=0, cache_dir=str(tmp_path)))
        url = handle.base_url
        handle.stop()
        return RemoteBackend(url, timeout=1.0)

    def test_every_operation_degrades_quietly(self, dead):
        assert dead.get(key()) is None
        assert dead.put(key(), b"payload") == ()
        assert dead.delete(key()) == 0
        assert dead.list_entries() == []
        assert dead.stats().entries == 0
        assert dead.gc(0, grace_seconds=0) == (0, 0)
        assert dead.clear() == 0

    def test_scan_through_a_dead_server_matches_uncached(self, dead):
        apk = fresh_apk()
        baseline, _ = scan_with(None, loads_apk(dumps_apk(apk)))
        result, session = scan_with(dead, apk)
        assert finding_sigs(result) == finding_sigs(baseline)
        # Every artifact was built locally; nothing was served.
        assert session.store.counters.builds_of("callgraph") == 1
        assert counter(session, "cache.remote.callgraph.hits") == 0

    def test_non_blob_response_is_a_miss(self, tmp_path):
        # A daemon with no cache root answers /v1/cache with 503: the
        # client treats any non-200 as absent.
        handle = start_in_thread(ServiceConfig(port=0))
        try:
            backend = RemoteBackend(handle.base_url)
            assert backend.get(key()) is None
            assert backend.put(key(), b"x") == ()
            assert backend.list_entries() == []
        finally:
            handle.stop()


class TestFromOptions:
    def test_disabled_without_backend_or_dir(self):
        assert CacheStore.from_options(NCheckerOptions()) is None

    def test_cache_dir_shorthand(self, tmp_path):
        store = CacheStore.from_options(NCheckerOptions(cache_dir=str(tmp_path)))
        assert isinstance(store.backend, LocalDirBackend)
        assert store.backend.root == tmp_path

    def test_spec_string_takes_local_root_from_cache_dir(self, tmp_path):
        store = CacheStore.from_options(
            NCheckerOptions(cache_dir=str(tmp_path), cache_backend="memory+local")
        )
        assert isinstance(store.backend, TieredBackend)
        assert store.backend.tiers[1].root == tmp_path

    def test_live_backend_instance_wins_over_cache_dir(self, tmp_path):
        backend = MemoryBackend()
        store = CacheStore.from_options(
            NCheckerOptions(cache_dir=str(tmp_path), cache_backend=backend)
        )
        assert store.backend is backend

    def test_spec_without_usable_root_raises(self):
        with pytest.raises(ValueError, match="needs a directory"):
            CacheStore.from_options(NCheckerOptions(cache_backend="local"))


# ---------------------------------------------------------------------------
# CLI: --cache-backend byte-identity and warm-run behaviour per spec.
# ---------------------------------------------------------------------------


CLI_SPECS = ("local", "memory", "memory+local")


class TestCLIBackends:
    @pytest.fixture(autouse=True)
    def fresh_shared_memory(self):
        """The ``memory`` spec tier is process-global by design; keep
        tests hermetic by draining it on both sides."""
        shared_memory_backend().clear()
        yield
        shared_memory_backend().clear()

    @pytest.fixture()
    def app_files(self, tmp_path):
        buggy, _ = single_request_app(RequestSpec())
        clean, _ = single_request_app(
            RequestSpec(
                connectivity=Connectivity.GUARDED,
                with_timeout=True,
                with_retry=True,
                retry_value=2,
                with_notification=Notification.TOAST,
                with_response_check=True,
            ),
            package="com.test.clean",
        )
        paths = [tmp_path / "buggy.apkt", tmp_path / "clean.apkt"]
        save_apk(buggy, paths[0])
        save_apk(clean, paths[1])
        return [str(p) for p in paths]

    def run(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_report_mode_byte_identical_across_specs(self, app_files, capsys):
        baseline = self.run(["scan", "--no-disk-cache", *app_files], capsys)
        for spec in CLI_SPECS:
            shared_memory_backend().clear()
            cold = self.run(["scan", "--cache-backend", spec, *app_files], capsys)
            warm = self.run(["scan", "--cache-backend", spec, *app_files], capsys)
            warm_jobs = self.run(
                ["scan", "--cache-backend", spec, "--jobs", "2", *app_files],
                capsys,
            )
            assert baseline == cold == warm == warm_jobs, spec

    def test_json_mode_byte_identical_on_a_tier_chain(self, app_files, capsys):
        baseline = self.run(
            ["scan", "--json", "--no-disk-cache", *app_files], capsys
        )
        cold = self.run(
            ["scan", "--json", "--cache-backend", "memory+local", *app_files],
            capsys,
        )
        warm = self.run(
            ["scan", "--json", "--cache-backend", "memory+local", *app_files],
            capsys,
        )
        assert baseline == cold == warm

    def test_sarif_byte_identical_on_a_tier_chain(
        self, app_files, tmp_path, capsys
    ):
        logs = []
        for name, extra in (
            ("disabled", ["--no-disk-cache"]),
            ("cold", ["--cache-backend", "memory+local"]),
            ("warm", ["--cache-backend", "memory+local"]),
        ):
            path = tmp_path / f"{name}.sarif"
            main(["scan", "--sarif", str(path), *extra, *app_files])
            capsys.readouterr()
            logs.append(path.read_bytes())
        assert len(set(logs)) == 1

    @pytest.mark.parametrize("spec", CLI_SPECS)
    def test_warm_run_is_build_free_on_every_spec(
        self, spec, app_files, tmp_path, capsys
    ):
        serving = "local" if spec == "local" else "memory"
        warm_metrics = tmp_path / "warm.json"
        main(["scan", "--cache-backend", spec, *app_files])
        main(
            [
                "scan", "--cache-backend", spec,
                "--metrics", str(warm_metrics), *app_files,
            ]
        )
        capsys.readouterr()
        warm = json.loads(warm_metrics.read_text())["counters"]
        for kind in APP_KINDS:
            assert warm.get(f"artifact.{kind}.builds", 0) == 0, spec
        for kind in PERSISTED_KINDS:
            assert warm.get(f"cache.{serving}.{kind}.hits", 0) == 2, spec

    def test_extended_checks_identical_on_a_tier_chain(self, tmp_path, capsys):
        from repro.corpus.lifecycle import build_lifecycle_corpus

        files = []
        for apk, _truth in build_lifecycle_corpus()[:2]:
            path = tmp_path / f"{apk.package}.apkt"
            save_apk(apk, path)
            files.append(str(path))

        def run(extra):
            code = main(["scan", "--extended-checks", *extra, *files])
            return code, capsys.readouterr().out

        disabled = run(["--no-disk-cache"])
        cold = run(["--cache-backend", "memory+local"])
        warm = run(["--cache-backend", "memory+local"])
        assert disabled == cold == warm

    def test_bad_spec_dies_before_scanning(self, app_files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--cache-backend", "redis", *app_files])
        assert exc.value.code == 2
        assert "unknown cache backend tier" in capsys.readouterr().err

    def test_no_disk_cache_wins_over_backend_spec(
        self, app_files, tmp_path, capsys
    ):
        cache_dir = tmp_path / "never-written"
        main(
            [
                "scan", "--no-disk-cache", "--cache-backend", "memory+local",
                "--cache-dir", str(cache_dir), *app_files,
            ]
        )
        capsys.readouterr()
        assert not cache_dir.exists()
        assert shared_memory_backend().list_entries() == []

    def test_cache_stats_renders_tier_sections(self, app_files, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main(
            [
                "scan", "--cache-backend", "memory+local",
                "--cache-dir", str(cache_dir), *app_files,
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "cache", "stats", "--cache-backend", "memory+local",
                "--cache-dir", str(cache_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cache memory+local" in out
        assert "tier memory" in out and "tier local" in out

    def test_cache_clear_drains_every_tier(self, app_files, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main(
            [
                "scan", "--cache-backend", "memory+local",
                "--cache-dir", str(cache_dir), *app_files,
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "cache", "clear", "--cache-backend", "memory+local",
                "--cache-dir", str(cache_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("removed ")
        assert shared_memory_backend().list_entries() == []
        assert LocalDirBackend(cache_dir).list_entries() == []
