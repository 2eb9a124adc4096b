"""Persistent cross-run artifact cache (`repro.pipeline.cachestore`'s
``LocalDirBackend``), a library feature set through
``NCheckerOptions.cache_dir``.

The contract under test: a warm re-scan of an unchanged app performs
zero app-scoped artifact builds, the scan unit's rendered output is
byte-identical with the cache cold, warm, or disabled (including a
process pool), corrupted entries degrade to rebuilds, and the patch
loop's output does not depend on the cache.  The blob store's own
semantics (the conformance battery, format compatibility) are covered
in ``test_cachestore.py``.  Counts are read from the metrics registry
active during the scan, as ``--metrics`` and the daemon read them.
"""

import json
import struct

import pytest

from repro.app import save_apk
from repro.app.loader import dumps_apk, loads_apk
from repro.core import NChecker
from repro.core.checker import DEFAULT_CHECKS, EXTENDED_CHECKS, NCheckerOptions
from repro.core.patcher import Patcher
from repro.corpus.snippets import Connectivity, Notification, RequestSpec
from repro.eval.sarif import assemble_sarif_log
from repro.ir.statements import NopStmt
from repro.obs import merge_snapshots, use_metrics
from repro.pipeline.batch import BatchScanner, ScanTask, scan_one
from repro.pipeline.cachestore import (
    CACHE_FORMAT_VERSION,
    app_content_fingerprint,
    fingerprints,
    registry_fingerprint,
)

from tests.conftest import single_request_app

#: The five app-scoped artifact kinds the cache persists.
APP_KINDS = ("callgraph", "summaries", "requests", "retry-loops", "icc-model")


def fresh_apk():
    apk, _ = single_request_app(RequestSpec())
    return apk


def finding_sigs(result) -> list[tuple]:
    """A stable projection of the findings, comparable across distinct
    APK instances (Finding embeds live IRMethod objects via the request,
    which compare by identity)."""
    return [
        (f.kind, f.method_key, f.stmt_index, f.message)
        for f in result.findings
    ]


def app_builds(registry) -> dict[str, int]:
    """A scan's app-scoped build counts (method-scoped kinds are rebuilt
    per process by design and excluded here)."""
    return {
        kind: registry.counter_value(f"artifact.{kind}.builds")
        for kind in APP_KINDS
    }


def scan_once(cache_dir, apk=None):
    """One fresh-process-equivalent scan: new checker, new session.
    Returns the result and the metrics registry the scan recorded into."""
    options = NCheckerOptions(cache_dir=str(cache_dir) if cache_dir else None)
    checker = NChecker(options=options)
    session = checker.open_session(apk if apk is not None else fresh_apk())
    with use_metrics() as registry:
        result = session.scan()
    return result, registry


def entry_files(cache_dir) -> list:
    """Every entry file under a cache directory's format-version trees."""
    return sorted(cache_dir.glob("v*/??/*/*.bin"))


class TestFingerprints:
    def test_stable_across_serialization(self):
        apk = fresh_apk()
        clone = loads_apk(dumps_apk(apk))
        assert app_content_fingerprint(apk) == app_content_fingerprint(clone)

    def test_statement_change_changes_fingerprint(self):
        apk = fresh_apk()
        before = app_content_fingerprint(apk)
        method = next(iter(apk.methods()))
        method.statements.insert(0, NopStmt())
        assert app_content_fingerprint(apk) != before

    def test_class_header_change_changes_fingerprint(self):
        apk = fresh_apk()
        before = app_content_fingerprint(apk)
        cls = next(iter(apk.classes()))
        cls.interfaces = cls.interfaces + ("java.lang.Runnable",)
        assert app_content_fingerprint(apk) != before

    def test_field_change_changes_fingerprint(self):
        from repro.ir.values import FieldSig

        apk = fresh_apk()
        before = app_content_fingerprint(apk)
        cls = next(iter(apk.classes()))
        cls.add_field(FieldSig(cls.name, "extra", "java.lang.String"))
        assert app_content_fingerprint(apk) != before

    def test_registry_fingerprint_folds_model_version(self, monkeypatch):
        from repro.libmodels import default_registry

        registry = default_registry()
        before = registry_fingerprint(registry)
        monkeypatch.setattr(fingerprints, "LIBMODELS_VERSION", 9999)
        assert registry_fingerprint(registry) != before


class TestWarmScan:
    def test_cold_builds_then_warm_adopts(self, tmp_path):
        cache_dir = tmp_path / "cache"
        r1, s1 = scan_once(cache_dir)
        cold = app_builds(s1)
        assert cold["callgraph"] == 1 and cold["requests"] == 1

        r2, s2 = scan_once(cache_dir)
        assert app_builds(s2) == dict.fromkeys(APP_KINDS, 0)
        for kind in ("callgraph", "summaries", "requests", "retry-loops"):
            assert s2.counter_value(f"cache.local.{kind}.hits") == 1
        assert finding_sigs(r2) == finding_sigs(r1)
        assert [req.location() for req in r2.requests] == [
            req.location() for req in r1.requests
        ]

    def test_superclass_edit_misses_the_cache(self, tmp_path):
        """Dropping ``extends AsyncTask`` changes no method body but
        rewires the call graph: a cache warmed on the original must not
        serve the edit (it used to, with different findings)."""
        from repro.corpus import PAPER_PROFILE, CorpusGenerator

        apk, _ = CorpusGenerator(PAPER_PROFILE.scaled(40)).generate_app(34)
        task = next(c for c in apk.classes() if c.superclass == "android.os.AsyncTask")
        edited = loads_apk(dumps_apk(apk))
        edited.get_class(task.name).superclass = "java.lang.Object"
        cache_dir = tmp_path / "cache"
        scan_once(cache_dir, apk)

        cached, registry = scan_once(cache_dir, edited)
        fresh, _ = scan_once(None, loads_apk(dumps_apk(edited)))
        assert app_builds(registry)["callgraph"] == 1
        assert finding_sigs(cached) == finding_sigs(fresh)
        assert cached.to_dict() == fresh.to_dict()

    def test_disabled_cache_writes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _r, _m = scan_once(None)
        assert not cache_dir.exists()

    def test_repeat_scan_rewrites_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        options = NCheckerOptions(cache_dir=str(cache_dir))
        session = NChecker(options=options).open_session(fresh_apk())
        session.scan()
        entries = {p: p.stat().st_mtime_ns for p in entry_files(cache_dir)}
        assert entries
        session.scan()  # same session, same fingerprint: already synced
        after = {p: p.stat().st_mtime_ns for p in entry_files(cache_dir)}
        assert after == entries

    def test_format_version_bump_is_cold(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        scan_once(cache_dir)
        monkeypatch.setattr(
            fingerprints, "CACHE_FORMAT_VERSION", CACHE_FORMAT_VERSION + 1
        )
        _r, registry = scan_once(cache_dir)
        assert app_builds(registry)["callgraph"] == 1  # old entries unusable

    def test_library_model_bump_is_cold(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        scan_once(cache_dir)
        monkeypatch.setattr(fingerprints, "LIBMODELS_VERSION", 9999)
        _r, registry = scan_once(cache_dir)
        assert app_builds(registry)["callgraph"] == 1


class TestCorruption:
    def entry(self, cache_dir, kind) -> "list":
        return [p for p in entry_files(cache_dir)
                if p.name.startswith(f"{kind}-")]

    def corrupt_and_rescan(self, tmp_path, mutate, kind="summaries"):
        cache_dir = tmp_path / "cache"
        r1, _ = scan_once(cache_dir)
        (path,) = self.entry(cache_dir, kind)
        mutate(path)
        r2, registry = scan_once(cache_dir)
        assert finding_sigs(r2) == finding_sigs(r1)
        return registry, path

    def test_truncated_entry_is_a_miss_and_rebuilds(self, tmp_path):
        def truncate(path):
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        m, path = self.corrupt_and_rescan(tmp_path, truncate)
        # One miss for the unreadable entry, one for the write-back of
        # the rebuilt artifact (every write counts as a miss).
        assert m.counter_value("cache.local.summaries.misses") == 2
        assert m.counter_value("cache.local.errors") == 1
        assert app_builds(m)["summaries"] == 1
        assert app_builds(m)["callgraph"] == 0  # others still warm
        # The rebuilt artifact overwrote the bad entry: next scan is clean.
        _r3, s3 = scan_once(tmp_path / "cache")
        assert app_builds(s3) == dict.fromkeys(APP_KINDS, 0)
        assert s3.counter_value("cache.local.errors") == 0

    def test_truncated_below_header_is_a_miss(self, tmp_path):
        registry, _ = self.corrupt_and_rescan(
            tmp_path, lambda p: p.write_bytes(b"NC")
        )
        assert registry.counter_value("cache.local.errors") == 1

    def test_bad_magic_is_a_miss(self, tmp_path):
        def stamp(path):
            data = bytearray(path.read_bytes())
            data[:4] = b"XXXX"
            path.write_bytes(bytes(data))

        registry, _ = self.corrupt_and_rescan(tmp_path, stamp)
        assert registry.counter_value("cache.local.errors") == 1

    def test_header_version_mismatch_is_a_miss(self, tmp_path):
        def bump_version(path):
            data = bytearray(path.read_bytes())
            struct.pack_into(">I", data, 4, CACHE_FORMAT_VERSION + 7)
            path.write_bytes(bytes(data))

        registry, _ = self.corrupt_and_rescan(tmp_path, bump_version)
        assert registry.counter_value("cache.local.errors") == 1

    def test_flipped_payload_byte_is_a_miss(self, tmp_path):
        def flip(path):
            data = bytearray(path.read_bytes())
            data[-1] ^= 0xFF
            path.write_bytes(bytes(data))

        registry, _ = self.corrupt_and_rescan(tmp_path, flip)
        assert registry.counter_value("cache.local.errors") == 1


class TestPatchWarmStart:
    def test_patch_until_clean_matches_without_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        apk = fresh_apk()
        scan_once(cache_dir, apk)  # warm the cache first

        cached = NChecker(options=NCheckerOptions(cache_dir=str(cache_dir)))
        plain = NChecker()
        fixed_cached, applied_cached = Patcher().patch_until_clean(
            loads_apk(dumps_apk(apk)), cached
        )
        fixed_plain, applied_plain = Patcher().patch_until_clean(
            loads_apk(dumps_apk(apk)), plain
        )
        assert dumps_apk(fixed_cached) == dumps_apk(fixed_plain)
        assert len(applied_cached) == len(applied_plain)


class TestCLIByteIdentity:
    """What the CLI prints is what the scan unit renders; that rendering
    must be byte-identical with the library cache disabled, cold, and
    warm, in-process and across a process pool."""

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

    def modes(self, app_files, tmp_path, **wants):
        """Payloads with the cache disabled, cold, warm, and warm across
        two worker processes."""
        cached = NCheckerOptions(cache_dir=str(tmp_path / "cache"))
        return [
            render(app_files, NCheckerOptions(), **wants),
            render(app_files, cached, **wants),
            render(app_files, cached, **wants),
            BatchScanner(cached, jobs=2).scan_paths(app_files, **wants),
        ]

    def test_report_mode(self, app_files, tmp_path):
        disabled, cold, warm, warm_jobs = self.modes(app_files, tmp_path)
        assert disabled == cold == warm == warm_jobs
        assert disabled[0].report_texts

    def test_json_mode(self, app_files, tmp_path):
        outputs = {
            json.dumps([p.json_dict for p in payloads], indent=2)
            for payloads in self.modes(app_files, tmp_path, want_json=True)
        }
        assert len(outputs) == 1

    def test_sarif_output(self, app_files, tmp_path):
        logs = {
            json.dumps(
                assemble_sarif_log(
                    [k for p in payloads for k in p.sarif_kind_values],
                    [r for p in payloads for r in p.sarif_results],
                ),
                indent=2,
            )
            for payloads in self.modes(app_files, tmp_path, want_sarif=True)
        }
        assert len(logs) == 1

    def test_warm_run_has_zero_app_builds(self, app_files, tmp_path):
        options = NCheckerOptions(cache_dir=str(tmp_path / "cache"))
        cold = counters(render(app_files, options, want_metrics=True))
        warm = counters(render(app_files, options, want_metrics=True))
        assert cold.get("artifact.callgraph.builds", 0) == 2  # two apps
        for kind in APP_KINDS:
            assert warm.get(f"artifact.{kind}.builds", 0) == 0
        for kind in ("callgraph", "summaries", "requests", "retry-loops"):
            assert warm.get(f"cache.local.{kind}.hits", 0) == 2

    def test_warm_jobs_run_has_zero_app_builds(self, app_files, tmp_path):
        options = NCheckerOptions(cache_dir=str(tmp_path / "cache"))
        render(app_files, options)  # cold, populate
        warm = counters(
            BatchScanner(options, jobs=2).scan_paths(app_files, want_metrics=True)
        )
        for kind in APP_KINDS:
            assert warm.get(f"artifact.{kind}.builds", 0) == 0


def render(app_files, options, **wants) -> list:
    """The scan unit's payload for each app file, in-process."""
    return [scan_one(ScanTask(path, options, **wants)) for path in app_files]


def counters(payloads) -> dict:
    return merge_snapshots([p.metrics_snapshot for p in payloads])["counters"]


class TestExtendedChecksCache:
    """The threadcontext artifact (built only for the extended checks)
    rides the same persistent cache: one cold build per app, zero on any
    warm re-scan, and byte-identical `--extended-checks` output."""

    def options(self, cache_dir=None) -> NCheckerOptions:
        return NCheckerOptions(
            cache_dir=str(cache_dir) if cache_dir else None,
            enabled_checks=DEFAULT_CHECKS | EXTENDED_CHECKS,
        )

    def scan_extended(self, cache_dir, apk=None):
        checker = NChecker(options=self.options(cache_dir))
        session = checker.open_session(apk if apk is not None else fresh_apk())
        with use_metrics() as registry:
            result = session.scan()
        return result, registry

    def test_warm_rescan_builds_zero_threadcontexts(self, tmp_path):
        cache_dir = tmp_path / "cache"
        r1, m1 = self.scan_extended(cache_dir)
        assert m1.counter_value("artifact.threadcontext.builds") == 1

        r2, m2 = self.scan_extended(cache_dir)
        assert m2.counter_value("artifact.threadcontext.builds") == 0
        assert m2.counter_value("cache.local.threadcontext.hits") == 1
        assert app_builds(m2) == dict.fromkeys(APP_KINDS, 0)
        assert finding_sigs(r2) == finding_sigs(r1)

    def test_default_scan_never_persists_threadcontext(self, tmp_path):
        cache_dir = tmp_path / "cache"
        scan_once(cache_dir)
        entries = entry_files(cache_dir)
        assert entries
        assert not [p for p in entries if p.name.startswith("threadcontext-")]

    @pytest.fixture()
    def lifecycle_files(self, tmp_path):
        from repro.corpus.lifecycle import build_lifecycle_corpus

        paths = []
        for apk, _truth in build_lifecycle_corpus()[:4]:
            path = tmp_path / f"{apk.package}.apkt"
            save_apk(apk, path)
            paths.append(str(path))
        return paths

    def test_cli_byte_identity(self, lifecycle_files, tmp_path):
        cached = self.options(tmp_path / "cache")
        disabled = render(lifecycle_files, self.options())
        cold = render(lifecycle_files, cached)
        warm = render(lifecycle_files, cached)
        warm_jobs = BatchScanner(cached, jobs=2).scan_paths(lifecycle_files)
        assert disabled == cold == warm == warm_jobs
        assert any(
            "main (UI) thread" in text
            for payload in disabled
            for text in payload.report_texts
        )

    def test_cli_warm_run_has_zero_threadcontext_builds(
        self, lifecycle_files, tmp_path
    ):
        cached = self.options(tmp_path / "cache")
        render(lifecycle_files, cached)
        warm = counters(render(lifecycle_files, cached, want_metrics=True))
        assert warm.get("artifact.threadcontext.builds", 0) == 0
        assert warm.get("cache.local.threadcontext.hits", 0) == len(
            lifecycle_files
        )
