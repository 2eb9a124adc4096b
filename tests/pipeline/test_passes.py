"""Scan sequencing: the enabled checks run in catalog order, and a scan
builds only the artifacts they declare in ``reads(options)``."""

import pytest

from repro.core import NChecker, NCheckerOptions
from repro.core import checks as check_registry
from repro.core.checker import DEFAULT_CHECKS
from repro.corpus.snippets import RequestSpec
from repro.obs import use_metrics
from repro.pipeline import ARTIFACTS

from tests.conftest import single_request_app

#: The app-scoped artifact kinds a scan may build.
APP_KINDS = tuple(name for name, key in ARTIFACTS.items() if key.scope == "app")


class FakeCheck:
    name = "fake"

    def reads(self, options):
        return ("requests", "no-such-artifact")

    def run(self, ctx, requests):
        return []


class TestOrdering:
    def test_catalog_lists_config_apis_before_retry_parameters(self):
        names = [c.name for c in check_registry.check_catalog(NCheckerOptions())]
        assert names.index("config-apis") < names.index("retry-parameters")

    def test_unknown_artifact_name_raises(self, monkeypatch):
        catalog = check_registry.check_catalog
        monkeypatch.setattr(
            check_registry,
            "check_catalog",
            lambda options, icc_model=None: catalog(options, icc_model)
            + [FakeCheck()],
        )
        apk, _ = single_request_app(RequestSpec())
        options = NCheckerOptions(enabled_checks=DEFAULT_CHECKS | {"fake"})
        with pytest.raises(KeyError, match="no-such-artifact"):
            NChecker(options=options).scan(apk)


def scan_counters(**kwargs):
    """Scan a one-request app; return the build count of every artifact
    and the names of the checks that ran, in catalog order."""
    apk, _ = single_request_app(RequestSpec(library="basichttp"))
    options = NCheckerOptions(**kwargs)
    with use_metrics() as registry:
        NChecker(options=options).session_for(apk).scan()
    builds = {
        kind: registry.counter_value(f"artifact.{kind}.builds") for kind in ARTIFACTS
    }
    ran = tuple(
        check.name
        for check in check_registry.check_catalog(options)
        if registry.counter_value(f"pass.{check.name}.runs")
    )
    return builds, ran


def assert_app_builds(builds, skipped):
    """Assert each app artifact was built once, or never if ``skipped``."""
    assert {kind: builds[kind] for kind in APP_KINDS} == {
        kind: 0 if kind in skipped else 1 for kind in APP_KINDS
    }


class TestPlanning:
    def test_default_plan_skips_icc_model_only(self):
        builds, ran = scan_counters()
        assert ran == (
            "config-apis",
            "connectivity",
            "retry-parameters",
            "failure-notification",
            "invalid-response",
        )
        assert_app_builds(builds, {"icc-model", "threadcontext"})

    def test_connectivity_only_plan_skips_retry_loops(self):
        builds, ran = scan_counters(enabled_checks=frozenset({"connectivity"}))
        assert ran == ("connectivity",)
        assert_app_builds(builds, {"retry-loops", "icc-model", "threadcontext"})

    def test_no_retry_loop_detection_skips_the_artifact(self):
        builds, _ = scan_counters(detect_retry_loops=False)
        assert_app_builds(builds, {"retry-loops", "icc-model", "threadcontext"})

    def test_inter_component_needs_icc_model(self):
        builds, _ = scan_counters(inter_component=True)
        assert_app_builds(builds, {"threadcontext"})

    def test_no_summaries_skips_the_engine(self):
        builds, _ = scan_counters(summary_based=False)
        assert_app_builds(builds, {"summaries", "icc-model", "threadcontext"})


class TestSkippedArtifactsNotBuilt:
    def test_default_scan_builds_retry_loops(self):
        builds, _ = scan_counters()
        assert builds["retry-loops"] == 1
        assert builds["icc-model"] == 0

    def test_disabling_checks_skips_artifacts_only_they_need(self):
        builds, _ = scan_counters(enabled_checks=frozenset({"connectivity"}))
        assert builds["retry-loops"] == 0
        assert builds["icc-model"] == 0
        # Shared artifacts are still built exactly once.
        assert builds["requests"] == 1
        assert builds["callgraph"] == 1

    def test_summary_ablation_never_builds_the_engine(self):
        builds, _ = scan_counters(summary_based=False)
        assert builds["summaries"] == 0

    def test_scan_results_unchanged_by_pipeline_for_enabled_kinds(self):
        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        full = NChecker().scan(apk)
        conn_only = NChecker(
            options=NCheckerOptions(enabled_checks=frozenset({"connectivity"}))
        ).scan(apk)
        full_conn = [
            (f.method_key, f.stmt_index)
            for f in full.findings
            if f.kind.value == "missed-connectivity-check"
        ]
        got = [
            (f.method_key, f.stmt_index)
            for f in conn_only.findings
            if f.kind.value == "missed-connectivity-check"
        ]
        assert got == full_conn
