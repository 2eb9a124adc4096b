"""Lifecycle corpus (`repro.corpus.lifecycle`): the deterministic apps
behind the extended-taxonomy precision/recall accounting (Table 6x)."""

from repro.core.defects import DefectKind
from repro.corpus.lifecycle import EXTENDED_KINDS, build_lifecycle_corpus
from repro.pipeline.cachestore import app_content_fingerprint


class TestShape:
    def test_thirteen_apps_with_unique_packages(self):
        corpus = build_lifecycle_corpus()
        assert len(corpus) == 13
        packages = [apk.package for apk, _ in corpus]
        assert len(set(packages)) == 13
        assert all(pkg.startswith("org.lifecycle.") for pkg in packages)

    def test_deterministic_across_builds(self):
        first = build_lifecycle_corpus()
        second = build_lifecycle_corpus()
        assert [apk.package for apk, _ in first] == [
            apk.package for apk, _ in second
        ]
        for (a, _), (b, _) in zip(first, second):
            assert app_content_fingerprint(a) == app_content_fingerprint(b)


class TestGroundTruth:
    def test_expectations_restricted_to_extended_kinds(self):
        for _apk, truth in build_lifecycle_corpus():
            for record in truth.requests:
                assert record.expected <= set(EXTENDED_KINDS)

    def test_two_injected_defects_per_extended_kind(self):
        counts = dict.fromkeys(EXTENDED_KINDS, 0)
        for _apk, truth in build_lifecycle_corpus():
            for record in truth.requests:
                for kind in record.expected:
                    counts[kind] += 1
        assert counts == {
            DefectKind.UI_THREAD_NETWORK: 2,
            DefectKind.CALLBACK_LEAK: 2,
            DefectKind.MISSED_OFFLINE_CACHE: 2,
        }

    def test_every_app_carries_a_ledger_entry(self):
        for apk, truth in build_lifecycle_corpus():
            assert truth.package == apk.package
            assert truth.requests
