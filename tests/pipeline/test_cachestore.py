"""Conformance suite for the cache store's local-directory tier.

The battery below pins the blob-store semantics documented in
:mod:`repro.pipeline.cachestore.backend` (best-effort never raising,
atomic publication, corruption-is-a-miss) on :class:`LocalDirBackend`,
the cache's one tier.  On top of it:

* scan-level tests proving a warm re-scan does **zero** app-scoped
  builds, with hits counted under ``cache.local.*``;
* format compatibility: ``LocalDirBackend`` reads a cache laid out by
  the pre-split disk-cache formula, and the entry header is pinned
  byte-for-byte;
* byte-identity of the scan unit's rendering with the cache disabled,
  cold and warm (in-process and across a process pool), through
  ``NCheckerOptions.cache_dir`` — the library path the perfbench replay
  drives.
"""

import hashlib
import struct

import pytest

from repro.app import save_apk
from repro.app.loader import dumps_apk, loads_apk
from repro.core import NChecker
from repro.core.checker import NCheckerOptions
from repro.corpus.snippets import Connectivity, Notification, RequestSpec
from repro.obs import merge_snapshots, use_metrics
from repro.pipeline.batch import BatchScanner, ScanTask, scan_one
from repro.pipeline.cachestore import (
    CACHE_FORMAT_VERSION,
    CacheStore,
    EntryKey,
    LocalDirBackend,
    app_content_fingerprint,
    entry_digest,
)
from tests.conftest import single_request_app

APP_KINDS = ("callgraph", "summaries", "requests", "retry-loops", "icc-model")
PERSISTED_KINDS = ("callgraph", "summaries", "requests", "retry-loops")
#: The batteries stay parametrized over the cache's tiers; ``local`` is
#: the only one.
BACKEND_PARAMS = ("local",)


@pytest.fixture(params=BACKEND_PARAMS)
def backend(tmp_path) -> LocalDirBackend:
    return LocalDirBackend(tmp_path / "cache")


def key(kind="summaries", app_fp="a" * 40, digest="0123456789abcdef") -> EntryKey:
    return EntryKey(app_fp, kind, digest)


def unique_keys(backend) -> set[EntryKey]:
    """The keys of every entry file under ``backend``'s current format."""
    keys = set()
    for path in backend.root.glob("v*/??/*/*.bin"):
        kind, _, digest = path.stem.rpartition("-")
        keys.add(EntryKey(path.parent.name, kind, digest))
    return keys


def fresh_apk():
    apk, _ = single_request_app(RequestSpec())
    return apk


def finding_sigs(result) -> list[tuple]:
    return [
        (f.kind, f.method_key, f.stmt_index, f.message) for f in result.findings
    ]


def scan_with(backend, apk=None):
    """One fresh-process-equivalent scan against ``backend``'s cache
    directory (``None``: no cache); returns the result and the metrics
    registry the scan recorded into."""
    options = NCheckerOptions(
        cache_dir=str(backend.root) if backend is not None else None
    )
    checker = NChecker(options=options)
    session = checker.open_session(apk if apk is not None else fresh_apk())
    with use_metrics() as registry:
        result = session.scan()
    return result, registry


def app_builds(registry) -> dict[str, int]:
    return {
        kind: registry.counter_value(f"artifact.{kind}.builds")
        for kind in APP_KINDS
    }


# ---------------------------------------------------------------------------
# The blob-store battery.
# ---------------------------------------------------------------------------


class TestBackendConformance:
    def test_get_absent_is_none(self, backend):
        assert backend.get(key()) is None

    def test_put_get_round_trip(self, backend):
        k = key()
        assert backend.put(k, b"payload")
        assert backend.get(k) == b"payload"

    def test_overwrite_replaces(self, backend):
        k = key()
        backend.put(k, b"old")
        backend.put(k, b"new-and-longer")
        assert backend.get(k) == b"new-and-longer"
        assert unique_keys(backend) == {k}
        assert backend.entry_path(k).stat().st_size == len(b"new-and-longer")

    def test_delete_drops_every_copy(self, backend):
        k = key()
        backend.put(k, b"x")
        assert backend.delete(k)
        assert backend.get(k) is None
        assert not backend.delete(k)  # idempotent, best-effort

    def test_distinct_digests_coexist(self, backend):
        """Two entries differing only in digest (same app, same kind —
        e.g. two options profiles) must never collide."""
        k1 = key(digest="1111111111111111")
        k2 = key(digest="2222222222222222")
        backend.put(k1, b"one")
        backend.put(k2, b"two")
        assert backend.get(k1) == b"one"
        assert backend.get(k2) == b"two"

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
        assert backend.put(key(), b"x") is False
        assert backend.get(key()) is None

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "cache")
        k = key()
        # A directory squatting on the entry path: read_bytes -> OSError.
        backend.entry_path(k).mkdir(parents=True)
        assert backend.get(k) is None

# ---------------------------------------------------------------------------
# Scan-level behaviour: build-free warm re-scans with telemetry under
# cache.local.*, and corruption degrades to a rebuild.
# ---------------------------------------------------------------------------


class TestWarmScanEveryBackend:
    def test_warm_rescan_is_build_free(self, backend):
        apk = fresh_apk()
        cold_result, cold_metrics = scan_with(backend, apk)
        assert app_builds(cold_metrics)["callgraph"] == 1

        warm_result, warm_metrics = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert app_builds(warm_metrics) == dict.fromkeys(APP_KINDS, 0)
        for kind in PERSISTED_KINDS:
            assert warm_metrics.counter_value(f"cache.local.{kind}.hits") == 1
        assert finding_sigs(warm_result) == finding_sigs(cold_result)

    def test_output_matches_uncached_scan(self, backend):
        apk = fresh_apk()
        baseline, _ = scan_with(None, loads_apk(dumps_apk(apk)))
        cold, _ = scan_with(backend, apk)
        warm, _ = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert (
            finding_sigs(baseline) == finding_sigs(cold) == finding_sigs(warm)
        )

    def test_cold_scan_counts_one_miss_per_tier_written(self, backend):
        _result, registry = scan_with(backend)
        assert registry.counter_value("cache.local.callgraph.misses") == 1
        assert registry.counter_value("cache.local.callgraph.hits") == 0


class TestCorruptionEveryBackend:
    def summaries_key(self, backend) -> EntryKey:
        [k] = {k for k in unique_keys(backend) if k.kind == "summaries"}
        return k

    def test_garbage_blob_is_a_miss_and_gets_repaired(self, backend):
        apk = fresh_apk()
        cold_result, _ = scan_with(backend, apk)
        k = self.summaries_key(backend)
        backend.put(k, b"complete garbage, not even a header")

        result, registry = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert app_builds(registry)["summaries"] == 1
        assert registry.counter_value("cache.local.summaries.misses") >= 1
        assert registry.counter_value("cache.local.errors") == 1
        # The bad entry was dropped and the rebuilt artifact re-published
        # — the next reader gets a valid blob.
        repaired = backend.get(k)
        assert repaired is not None and repaired[:4] == b"NCKC"

    def test_header_version_mismatch_is_a_miss(self, backend):
        apk = fresh_apk()
        cold_result, _ = scan_with(backend, apk)
        k = self.summaries_key(backend)
        stale = bytearray(backend.get(k))
        struct.pack_into(">I", stale, 4, CACHE_FORMAT_VERSION + 1)
        backend.put(k, bytes(stale))

        result, registry = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert app_builds(registry)["summaries"] == 1

    def test_flipped_payload_byte_is_a_miss(self, backend):
        apk = fresh_apk()
        cold_result, _ = scan_with(backend, apk)
        k = self.summaries_key(backend)
        flipped = bytearray(backend.get(k))
        flipped[-1] ^= 0xFF
        backend.put(k, bytes(flipped))

        result, registry = scan_with(backend, loads_apk(dumps_apk(apk)))
        assert finding_sigs(result) == finding_sigs(cold_result)
        assert app_builds(registry)["summaries"] == 1


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
        blob = backend.get(next(iter(unique_keys(backend))))
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

        result, registry = scan_with(
            LocalDirBackend(legacy_root), loads_apk(dumps_apk(apk))
        )
        assert app_builds(registry) == dict.fromkeys(APP_KINDS, 0)
        assert finding_sigs(result) == finding_sigs(cold_result)


# ---------------------------------------------------------------------------
# Options resolution.
# ---------------------------------------------------------------------------


class TestFromOptions:
    def test_disabled_without_backend_or_dir(self):
        assert CacheStore.from_options(NCheckerOptions()) is None

    def test_cache_dir_shorthand(self, tmp_path):
        store = CacheStore.from_options(NCheckerOptions(cache_dir=str(tmp_path)))
        assert isinstance(store.backend, LocalDirBackend)
        assert store.backend.root == tmp_path


# ---------------------------------------------------------------------------
# The scan unit over the library cache: byte-identity and warm-run
# behaviour with the cache disabled, cold and warm.
# ---------------------------------------------------------------------------


class TestCLIBackends:
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

    def run(self, app_files, options, **wants):
        return [scan_one(ScanTask(path, options, **wants)) for path in app_files]

    def test_report_mode_byte_identical_across_specs(self, app_files, tmp_path):
        cached = NCheckerOptions(cache_dir=str(tmp_path / "cache"))
        baseline = self.run(app_files, NCheckerOptions())
        cold = self.run(app_files, cached)
        warm = self.run(app_files, cached)
        warm_jobs = BatchScanner(cached, jobs=2).scan_paths(app_files)
        assert baseline == cold == warm == warm_jobs

    @pytest.mark.parametrize("spec", ["local"])
    def test_warm_run_is_build_free_on_every_spec(self, spec, app_files, tmp_path):
        cached = NCheckerOptions(cache_dir=str(tmp_path / "cache"))
        self.run(app_files, cached)
        warm = merge_snapshots(
            [p.metrics_snapshot for p in self.run(app_files, cached, want_metrics=True)]
        )["counters"]
        for kind in APP_KINDS:
            assert warm.get(f"artifact.{kind}.builds", 0) == 0
        for kind in PERSISTED_KINDS:
            assert warm.get(f"cache.{spec}.{kind}.hits", 0) == 2
