"""Connectivity-check analysis tests (paper §4.4.1 + its FN/FP behaviour)."""

import pytest

from repro.core import DefectKind, NChecker, NCheckerOptions
from repro.corpus.snippets import Connectivity, RequestSpec

from tests.conftest import single_request_app


def _scan(spec, options=NCheckerOptions(), in_service=False):
    apk, record = single_request_app(spec, in_service=in_service)
    return NChecker(options=options).scan(apk), record


def _conn_findings(result):
    return result.findings_of(DefectKind.MISSED_CONNECTIVITY_CHECK)


class TestBasic:
    def test_unchecked_request_flagged(self):
        result, _ = _scan(RequestSpec(connectivity=Connectivity.NONE))
        assert len(_conn_findings(result)) == 1

    def test_guarded_request_clean(self):
        result, _ = _scan(RequestSpec(connectivity=Connectivity.GUARDED))
        assert _conn_findings(result) == []

    def test_helper_wrapped_check_recognised(self):
        result, _ = _scan(RequestSpec(connectivity=Connectivity.HELPER))
        assert _conn_findings(result) == []

    def test_service_request_also_checked(self):
        result, _ = _scan(
            RequestSpec(connectivity=Connectivity.NONE), in_service=True
        )
        assert len(_conn_findings(result)) == 1


class TestPaperLimitations:
    def test_unguarded_check_is_false_negative(self):
        """Path-insensitive default: a check whose result never guards the
        request still counts — the paper's 5 known FNs."""
        result, record = _scan(RequestSpec(connectivity=Connectivity.UNGUARDED))
        assert _conn_findings(result) == []  # tool misses it
        assert DefectKind.MISSED_CONNECTIVITY_CHECK in record.expected  # human finds it

    def test_guard_aware_mode_catches_unguarded_check(self):
        """The ablation flag closes the FN class."""
        options = NCheckerOptions(guard_aware_connectivity=True)
        result, _ = _scan(RequestSpec(connectivity=Connectivity.UNGUARDED), options)
        assert len(_conn_findings(result)) == 1

    def test_guard_aware_mode_keeps_guarded_clean(self):
        options = NCheckerOptions(guard_aware_connectivity=True)
        result, _ = _scan(RequestSpec(connectivity=Connectivity.GUARDED), options)
        assert _conn_findings(result) == []

    def test_inter_component_check_is_false_positive(self):
        """A check performed in the launcher before starting this activity
        is invisible — the paper's 4 FPs."""
        from repro.corpus.appbuilder import AppBuilder
        from repro.corpus.opensource import _add_launcher_with_check
        from repro.corpus.snippets import inject_request

        app = AppBuilder("com.test.fp")
        _add_launcher_with_check(app)
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        record = inject_request(
            app, body, RequestSpec(connectivity=Connectivity.INTER_COMPONENT),
            user_initiated=True,
        )
        body.ret()
        activity.add(body)
        result = NChecker().scan(app.build())
        assert len(_conn_findings(result)) == 1  # reported...
        assert DefectKind.MISSED_CONNECTIVITY_CHECK not in record.expected  # ...wrongly


class TestInterprocedural:
    def test_check_in_caller_guards_callee_request(self):
        from repro.corpus.appbuilder import AppBuilder
        from repro.corpus.snippets import inject_request
        from repro.ir import Local

        app = AppBuilder("com.test.ip")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        cm = body.new("android.net.ConnectivityManager", "cm")
        ni = body.call(cm, "getActiveNetworkInfo", ret="ni")
        with body.if_then("!=", Local("ni"), None):
            body.call(Local("this"), "doFetch", cls=activity.name)
        body.ret()
        activity.add(body)

        fetch = activity.method("doFetch")
        inject_request(app, fetch, RequestSpec(), user_initiated=True)
        fetch.ret()
        activity.add(fetch)

        result = NChecker().scan(app.build())
        assert _conn_findings(result) == []

    def test_intraprocedural_ablation_misses_caller_check(self):
        from repro.corpus.appbuilder import AppBuilder
        from repro.corpus.snippets import inject_request
        from repro.ir import Local

        app = AppBuilder("com.test.ip2")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        cm = body.new("android.net.ConnectivityManager", "cm")
        body.call(cm, "getActiveNetworkInfo", ret="ni")
        with body.if_then("!=", Local("ni"), None):
            body.call(Local("this"), "doFetch", cls=activity.name)
        body.ret()
        activity.add(body)
        fetch = activity.method("doFetch")
        inject_request(app, fetch, RequestSpec(), user_initiated=True)
        fetch.ret()
        activity.add(fetch)

        options = NCheckerOptions(interprocedural_connectivity=False)
        result = NChecker(options=options).scan(app.build())
        assert len(_conn_findings(result)) == 1


_CONN_MGR = "android.net.ConnectivityManager"


def _helper(app, name, arity, checks):
    """A static ``isOnline`` helper of ``arity`` parameters; it calls
    ``getActiveNetworkInfo`` only when ``checks``."""
    helper = app.new_class(name)
    params = [("android.content.Context", f"c{i}") for i in range(arity)]
    b = helper.method(
        "isOnline", params=params, return_type="boolean", is_static=True
    )
    if checks:
        cm = b.new(_CONN_MGR, "cm")
        b.call(cm, "getActiveNetworkInfo", ret="ni", cls=_CONN_MGR)
    b.ret(True)
    helper.add(b)
    return helper.name


def _helper_index_app():
    """One activity per helper-call shape.  Each click handler makes the
    call, then calls ``doFetch``, which issues an unchecked request."""
    from repro.corpus.appbuilder import AppBuilder
    from repro.corpus.snippets import inject_request
    from repro.ir import Local

    app = AppBuilder("com.test.helpers")
    net_a = _helper(app, "NetA", 0, checks=True)
    net_b = _helper(app, "NetB", 0, checks=True)
    net_c = _helper(app, "NetC", 0, checks=False)
    view = Local("v")
    shapes = {
        "ViaA": lambda b: b.static_call(net_a, "isOnline", ret="ok"),
        # Same name and arity as NetA's helper, in another class.
        "ViaB": lambda b: b.static_call(net_b, "isOnline", ret="ok"),
        # Same name and arity, but this class's helper checks nothing.
        "ViaC": lambda b: b.static_call(net_c, "isOnline", ret="ok"),
        # Unresolved receiver ("?"): any helper's class matches.
        "Unresolved": lambda b: b.call(view, "isOnline", ret="ok"),
        # Same name, different arity: no helper matches.
        "WrongArity": lambda b: b.static_call(net_a, "isOnline", view, ret="ok"),
        "UnresolvedWrongArity": lambda b: b.call(view, "isOnline", view, ret="ok"),
    }
    for name, emit_call in shapes.items():
        activity = app.activity(name)
        body = activity.method("onClick", params=[("android.view.View", "v")])
        emit_call(body)
        body.call(Local("this"), "doFetch", cls=activity.name)
        body.ret()
        activity.add(body)
        fetch = activity.method("doFetch")
        inject_request(app, fetch, RequestSpec(), user_initiated=True)
        fetch.ret()
        activity.add(fetch)
    return app.build()


class TestHelperIndex:
    """App helpers are matched by (name, arity) and then by class."""

    @pytest.mark.parametrize("summary_based", [True, False])
    def test_helper_matching(self, summary_based):
        options = NCheckerOptions(summary_based=summary_based)
        result = NChecker(options=options).scan(_helper_index_app())
        flagged = {
            f.method_key[0].rsplit(".", 1)[1] for f in _conn_findings(result)
        }
        assert flagged == {"ViaC", "WrongArity", "UnresolvedWrongArity"}
