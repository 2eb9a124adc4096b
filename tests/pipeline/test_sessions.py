"""Scan sessions: ``NChecker``'s session cache reuses one artifact store
per distinct app content."""

from repro.app.loader import dumps_apk, loads_apk
from repro.core import NChecker
from repro.corpus.snippets import RequestSpec
from repro.ir.statements import NopStmt
from repro.obs import use_metrics

from tests.conftest import single_request_app


def callgraph_builds(registry) -> int:
    return registry.counter_value("artifact.callgraph.builds")


class TestSessionCache:
    def test_repeat_scan_hits_the_session(self):
        apk, _ = single_request_app(RequestSpec())
        checker = NChecker()
        with use_metrics() as registry:
            checker.scan(apk)
            assert callgraph_builds(registry) == 1
            checker.scan(apk)
            assert callgraph_builds(registry) == 1

    def test_structural_change_misses(self):
        apk, _ = single_request_app(RequestSpec())
        checker = NChecker()
        mutated = loads_apk(dumps_apk(apk))
        method = next(iter(mutated.methods()))
        method.statements.insert(0, NopStmt())
        method.validate()
        with use_metrics() as registry:
            checker.scan(apk)
            checker.scan(mutated)
            assert callgraph_builds(registry) == 2

    def test_lru_bound(self):
        checker = NChecker()
        checker.sessions.max_entries = 2
        for i in range(4):
            apk, _ = single_request_app(RequestSpec(), package=f"com.lru.a{i}")
            checker.scan(apk)
        assert len(checker.sessions._sessions) == 2
