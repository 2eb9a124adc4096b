"""`methods_invoking` (`repro.core.checks.base`): the reverse-edge
worklist closure — correctness against a naive fixpoint and the
each-in-edge-at-most-once visit bound its telemetry counter exposes."""

from types import SimpleNamespace

from repro.corpus.appbuilder import AppBuilder
from repro.core.checks.base import methods_invoking
from repro.ir.values import Local
from repro.libmodels import default_registry
from repro.obs import use_metrics
from repro.pipeline import CALLGRAPH, ArtifactStore


def chain_app():
    """onClick → stepA → stepB, with stepB invoking the probed API and a
    bystander method that never reaches it."""
    app = AppBuilder("org.worklist.chain")
    activity = app.activity("MainActivity")
    cls = f"{app.package}.MainActivity"

    step_b = activity.method("stepB")
    step_b.call(Local("this"), "probedOp", cls="com.ext.Helper")
    step_b.ret()
    activity.add(step_b)

    step_a = activity.method("stepA")
    step_a.call(Local("this"), "stepB", cls=cls)
    step_a.ret()
    activity.add(step_a)

    body = activity.method("onClick", params=[("android.view.View", "v")])
    body.call(Local("this"), "stepA", cls=cls)
    body.ret()
    activity.add(body)

    bystander = activity.method("unrelated")
    bystander.ret()
    activity.add(bystander)
    return app.build()


def probed(invoke) -> bool:
    return invoke.sig.name == "probedOp"


def naive_closure(graph, predicate):
    """The replaced whole-graph re-sweep fixpoint, as the oracle."""
    result = set()
    for key, method in graph.methods.items():
        if any(predicate(inv) for _idx, inv in method.invoke_sites()):
            result.add(key)
    changed = True
    while changed:
        changed = False
        for key, method in graph.methods.items():
            if key in result:
                continue
            for _idx, invoke in method.invoke_sites():
                callee = (invoke.sig.class_name, invoke.sig.name, invoke.sig.arity)
                if callee in result:
                    result.add(key)
                    changed = True
                    break
    return result


class TestWorklistClosure:
    def test_matches_naive_fixpoint(self):
        graph = ArtifactStore(chain_app(), default_registry()).get(CALLGRAPH)
        ctx = SimpleNamespace(callgraph=graph)
        got = methods_invoking(ctx, probed)
        assert got == naive_closure(graph, probed)
        cls = "org.worklist.chain.MainActivity"
        assert got == {(cls, "stepB", 0), (cls, "stepA", 0), (cls, "onClick", 1)}

    def test_visits_each_member_in_edge_exactly_once(self):
        graph = ArtifactStore(chain_app(), default_registry()).get(CALLGRAPH)
        ctx = SimpleNamespace(callgraph=graph)
        with use_metrics() as registry:
            members = methods_invoking(ctx, probed)
            visits = registry.counter_value(
                "analysis.methods_invoking.edge_visits"
            )
        # The closure is {stepB, stepA, onClick}; their in-edges are
        # stepA→stepB and onClick→stepA — exactly two edge visits, not
        # the whole-graph re-sweep the old fixpoint performed.
        assert visits == 2
        in_edges = sum(len(graph.callers(key)) for key in members)
        assert visits == in_edges

    def test_no_matches_means_no_edge_visits(self):
        graph = ArtifactStore(chain_app(), default_registry()).get(CALLGRAPH)
        ctx = SimpleNamespace(callgraph=graph)
        with use_metrics() as registry:
            assert methods_invoking(ctx, lambda inv: False) == set()
            assert (
                registry.counter_value("analysis.methods_invoking.edge_visits")
                == 0
            )
