"""Thread-context analysis (`repro.dataflow.threadcontext`).

Two layers: hypothesis properties over the lattice (`join`/`transfer`
are monotone, so the SCC propagation terminates at the least fixpoint)
and unit tests of the propagation itself over corpus-shaped apps —
seeds, direct-edge flow, async dispatch, widening, and the telemetry.
"""

from hypothesis import given, strategies as st

from repro.callgraph.cha import (
    EDGE_ASYNC_TASK,
    EDGE_DIRECT,
    EDGE_LIB_CALLBACK,
    EDGE_RUNNABLE,
)
from repro.corpus.appbuilder import AppBuilder
from repro.corpus.lifecycle import build_lifecycle_corpus
from repro.dataflow.threadcontext import (
    BACKGROUND,
    EITHER,
    MAIN,
    UNKNOWN,
    ThreadContextAnalysis,
    join,
    transfer,
)
from repro.ir.values import Local
from repro.libmodels import default_registry
from repro.obs import use_metrics
from repro.pipeline import CALLGRAPH, ArtifactStore

CONTEXTS = st.sampled_from([UNKNOWN, MAIN, BACKGROUND, EITHER])
ASYNC_EDGE_KINDS = st.sampled_from(
    [EDGE_ASYNC_TASK, EDGE_RUNNABLE, EDGE_LIB_CALLBACK]
)
EDGE_KINDS = st.sampled_from(
    [EDGE_DIRECT, EDGE_ASYNC_TASK, EDGE_RUNNABLE, EDGE_LIB_CALLBACK]
)
CALLEE_NAMES = st.sampled_from(
    ["doInBackground", "onPostExecute", "run", "onResponse"]
)
MAIN_FLAGS = st.sampled_from([None, True, False])


def leq(a, b) -> bool:
    """The lattice order: a ⊑ b iff join(a, b) == b (subset here)."""
    return join(a, b) == b


class TestLatticeLaws:
    @given(a=CONTEXTS, b=CONTEXTS)
    def test_join_commutative(self, a, b):
        assert join(a, b) == join(b, a)

    @given(a=CONTEXTS, b=CONTEXTS, c=CONTEXTS)
    def test_join_associative(self, a, b, c):
        assert join(join(a, b), c) == join(a, join(b, c))

    @given(a=CONTEXTS)
    def test_join_idempotent_with_bottom_and_top(self, a):
        assert join(a, a) == a
        assert join(a, UNKNOWN) == a
        assert join(a, EITHER) == EITHER

    @given(
        a=CONTEXTS,
        b=CONTEXTS,
        kind=EDGE_KINDS,
        callee=CALLEE_NAMES,
        dispatch_main=st.booleans(),
        callbacks_on_main=MAIN_FLAGS,
    )
    def test_transfer_monotone(
        self, a, b, kind, callee, dispatch_main, callbacks_on_main
    ):
        """a ⊑ b ⇒ transfer(a) ⊑ transfer(b), for every edge shape —
        the property that makes the fixpoint well-defined."""
        lower, upper = a & b, join(a, b)

        def step(ctx):
            return transfer(
                kind,
                ctx,
                callee_name=callee,
                dispatch_main=dispatch_main,
                callbacks_on_main=callbacks_on_main,
            )

        assert leq(step(lower), step(upper))

    @given(a=CONTEXTS)
    def test_direct_transfer_is_identity(self, a):
        assert transfer(EDGE_DIRECT, a) == a

    @given(
        a=CONTEXTS,
        b=CONTEXTS,
        kind=ASYNC_EDGE_KINDS,
        callee=CALLEE_NAMES,
        dispatch_main=st.booleans(),
        callbacks_on_main=MAIN_FLAGS,
    )
    def test_async_transfers_ignore_caller_context(
        self, a, b, kind, callee, dispatch_main, callbacks_on_main
    ):
        """Non-direct edges transfer constants — the fact that makes the
        one-step SCC widening exact."""

        def step(ctx):
            return transfer(
                kind,
                ctx,
                callee_name=callee,
                dispatch_main=dispatch_main,
                callbacks_on_main=callbacks_on_main,
            )

        assert step(a) == step(b)

    def test_transfer_constants(self):
        assert transfer(EDGE_ASYNC_TASK, MAIN, callee_name="doInBackground") == BACKGROUND
        assert transfer(EDGE_ASYNC_TASK, MAIN, callee_name="onPostExecute") == MAIN
        assert transfer(EDGE_RUNNABLE, MAIN, dispatch_main=True) == MAIN
        assert transfer(EDGE_RUNNABLE, MAIN, dispatch_main=False) == BACKGROUND
        assert transfer(EDGE_LIB_CALLBACK, MAIN, callbacks_on_main=None) == EITHER
        assert transfer(EDGE_LIB_CALLBACK, MAIN, callbacks_on_main=False) == BACKGROUND


def analyse(apk) -> ThreadContextAnalysis:
    registry = default_registry()
    graph = ArtifactStore(apk, registry).get(CALLGRAPH)
    return ThreadContextAnalysis(graph, registry)


def corpus_app(package: str):
    for apk, _truth in build_lifecycle_corpus():
        if apk.package == package:
            return apk
    raise AssertionError(f"no lifecycle-corpus app {package}")


class TestPropagation:
    def test_ui_callback_runs_on_main(self):
        analysis = analyse(corpus_app("org.lifecycle.uidirect"))
        key = ("org.lifecycle.uidirect.MainActivity", "onClick", 1)
        assert analysis.context_of(key) == MAIN
        assert analysis.describe(key) == "main"
        assert analysis.may_run_on_main(key)
        assert not analysis.may_run_in_background(key)

    def test_main_context_flows_over_direct_edges(self):
        analysis = analyse(corpus_app("org.lifecycle.uihelper"))
        helper = ("org.lifecycle.uihelper.SplashActivity", "fetchData", 0)
        assert analysis.context_of(helper) == MAIN

    def test_do_in_background_runs_off_main(self):
        analysis = analyse(corpus_app("org.lifecycle.uitask"))
        work = ("org.lifecycle.uitask.FetchTask", "doInBackground", 1)
        click = ("org.lifecycle.uitask.MainActivity", "onClick", 1)
        assert analysis.context_of(work) == BACKGROUND
        assert analysis.context_of(click) == MAIN

    def test_service_entry_runs_in_background(self):
        analysis = analyse(corpus_app("org.lifecycle.offlineguarded"))
        entry = ("org.lifecycle.offlineguarded.SyncService", "onStartCommand", 2)
        assert analysis.context_of(entry) == BACKGROUND
        assert analysis.describe(entry) == "background"

    def test_unreachable_method_stays_bottom(self):
        app = AppBuilder("org.tc.orphan")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        body.ret()
        activity.add(body)
        dead = activity.method("neverCalled")
        dead.ret()
        activity.add(dead)
        analysis = analyse(app.build())
        key = ("org.tc.orphan.MainActivity", "neverCalled", 0)
        assert analysis.context_of(key) == UNKNOWN
        assert analysis.describe(key) == "unknown"
        assert not analysis.may_run_on_main(key)

    def recursive_app(self):
        app = AppBuilder("org.tc.recursive")
        activity = app.activity("MainActivity")
        cls = f"{app.package}.MainActivity"
        helper = activity.method("poll")
        helper.call(Local("this"), "poll", cls=cls)
        helper.ret()
        activity.add(helper)
        body = activity.method("onClick", params=[("android.view.View", "v")])
        body.call(Local("this"), "poll", cls=cls)
        body.ret()
        activity.add(body)
        return app.build()

    def test_self_recursion_widens_and_stays_sound(self):
        with use_metrics() as registry:
            analysis = analyse(self.recursive_app())
            assert registry.counter_value("threadcontext.widenings") >= 1
        key = ("org.tc.recursive.MainActivity", "poll", 0)
        # Widening may only go up from the true context — and here the
        # constant transfers make it exact: still just the main thread.
        assert analysis.context_of(key) == MAIN

    def test_metrics_account_every_solved_method(self):
        with use_metrics() as registry:
            analysis = analyse(corpus_app("org.lifecycle.uihelper"))
            assert registry.counter_value("threadcontext.methods") == len(
                analysis.contexts
            )
            assert registry.counter_value("threadcontext.edges_propagated") > 0
