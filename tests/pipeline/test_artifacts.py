"""Artifact store: build-on-demand and hit counting.  Counts land in the
metrics registry active at each event, so the tests read them there."""

from repro.corpus.snippets import RequestSpec
from repro.libmodels import default_registry
from repro.obs import use_metrics
from repro.pipeline import (
    ARTIFACTS,
    CALLGRAPH,
    ICC_MODEL,
    REQUESTS,
    RETRY_LOOPS,
    SUMMARIES,
    ArtifactStore,
)

from tests.conftest import single_request_app


def make_store(spec=None):
    apk, _ = single_request_app(spec or RequestSpec())
    return apk, ArtifactStore(apk, default_registry())


def builds(registry, kind: str) -> int:
    return registry.counter_value(f"artifact.{kind}.builds")


class TestBuildOnDemand:
    def test_nothing_built_up_front(self):
        with use_metrics() as registry:
            _, store = make_store()
        assert store.peek(CALLGRAPH) is None
        assert registry.snapshot()["counters"] == {}

    def test_get_builds_dependencies_first(self):
        _, store = make_store()
        with use_metrics() as registry:
            store.get(REQUESTS)
        assert builds(registry, "callgraph") == 1
        assert builds(registry, "requests") == 1

    def test_repeat_get_is_a_hit(self):
        _, store = make_store()
        with use_metrics() as registry:
            first = store.get(CALLGRAPH)
            second = store.get(CALLGRAPH)
        assert first is second
        assert builds(registry, "callgraph") == 1
        assert registry.counter_value("artifact.callgraph.hits") == 1

    def test_retry_loops_pull_requests(self):
        _, store = make_store(RequestSpec(library="basichttp"))
        with use_metrics() as registry:
            store.get(RETRY_LOOPS)
        assert builds(registry, "requests") == 1

    def test_all_artifact_keys_registered(self):
        for key in (CALLGRAPH, REQUESTS, SUMMARIES, RETRY_LOOPS, ICC_MODEL):
            assert ARTIFACTS[key.name] is key
            for dep in key.deps:
                assert dep in ARTIFACTS

    def test_method_artifacts_counted(self):
        apk, store = make_store()
        method = next(iter(apk.methods()))
        with use_metrics() as registry:
            store.cfg(method)
            store.cfg(method)
            store.defuse(method)  # def-use pulls the CFG: another hit
        assert builds(registry, "cfg") == 1
        assert registry.counter_value("artifact.cfg.hits") == 2
        assert builds(registry, "defuse") == 1

    def test_counts_follow_the_active_registry(self):
        """A store outlives a scan (a daemon worker's warm session), so
        each event lands in the registry active when it happens."""
        _, store = make_store()
        with use_metrics() as first:
            store.get(CALLGRAPH)
        with use_metrics() as second:
            store.get(CALLGRAPH)
        assert builds(first, "callgraph") == 1
        assert first.counter_value("artifact.callgraph.hits") == 0
        assert builds(second, "callgraph") == 0
        assert second.counter_value("artifact.callgraph.hits") == 1
