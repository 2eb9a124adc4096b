"""Ablations over the design choices §4 calls out.

* **Path-insensitive vs guard-aware connectivity** — the paper accepts 5
  FNs to stay path-insensitive; guard-aware mode trades them away.
* **Inter-component analysis off** — the source of the paper's 9 FPs.
* **Interprocedural connectivity off** — checks wrapped in helpers/callers
  stop counting; FP volume explodes.
* **Retry-loop detection off** — custom retry logic loses credit and
  MISSED_RETRY over-reports.
"""

import pytest

from repro.core import DefectKind, NChecker, NCheckerOptions
from repro.corpus import (
    build_opensource_corpus,
    overall_accuracy,
    table9_confusions,
)
from repro.obs import use_metrics


@pytest.fixture(scope="module")
def corpus():
    return build_opensource_corpus()


def _accuracy(corpus, options):
    checker = NChecker(options=options)
    results = [checker.scan(apk) for apk, _ in corpus]
    truths = [t for _, t in corpus]
    table = table9_confusions(truths, results)
    conn = table["Missed conn. checks"]
    return overall_accuracy(table), conn


def test_ablation_guard_aware_connectivity(benchmark, corpus):
    """Guard-aware mode removes the 5 connectivity FNs at no FP cost."""
    default_acc, default_conn = _accuracy(corpus, NCheckerOptions())
    options = NCheckerOptions(guard_aware_connectivity=True)
    aware_acc, aware_conn = benchmark.pedantic(
        _accuracy, args=(corpus, options), rounds=1, iterations=1
    )
    print(
        f"\npath-insensitive: FN={default_conn.false_negatives} "
        f"FP={default_conn.false_positives} acc={default_acc:.3f}\n"
        f"guard-aware:      FN={aware_conn.false_negatives} "
        f"FP={aware_conn.false_positives} acc={aware_acc:.3f}"
    )
    assert default_conn.false_negatives == 5
    assert aware_conn.false_negatives == 0
    assert aware_conn.false_positives == default_conn.false_positives
    assert aware_acc >= default_acc


def test_ablation_inter_component_analysis(benchmark, corpus):
    """The paper's §4.7 future work (IccTA-style ICC): launcher-side
    connectivity checks and broadcast-routed error displays become
    visible, removing all 9 FPs; combined with guard-aware connectivity
    the 16-app corpus is classified perfectly."""
    _default_acc, default_conn = _accuracy(corpus, NCheckerOptions())
    icc_acc, icc_conn = benchmark.pedantic(
        _accuracy,
        args=(corpus, NCheckerOptions(inter_component=True)),
        rounds=1,
        iterations=1,
    )
    both_acc, _ = _accuracy(
        corpus,
        NCheckerOptions(inter_component=True, guard_aware_connectivity=True),
    )
    print(
        f"\ndefault acc={_default_acc:.3f}, +ICC acc={icc_acc:.3f}, "
        f"+ICC+guard acc={both_acc:.3f}"
    )
    assert default_conn.false_positives == 4
    assert icc_conn.false_positives == 0
    assert icc_acc == 1.0  # no FPs left anywhere
    assert both_acc == 1.0


def test_ablation_intraprocedural_connectivity(benchmark):
    """Restricting the connectivity analysis to the request's own method
    makes helper-wrapped checks invisible — a false positive the full
    analysis avoids."""
    from repro.corpus.snippets import Connectivity, RequestSpec
    from tests.conftest import single_request_app

    apk, _ = single_request_app(RequestSpec(connectivity=Connectivity.HELPER))
    interproc = NChecker().scan(apk)
    intra = benchmark.pedantic(
        NChecker(options=NCheckerOptions(interprocedural_connectivity=False)).scan,
        args=(apk,), rounds=1, iterations=1,
    )
    print(
        f"\nhelper-wrapped check: interprocedural finds "
        f"{interproc.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK)} conn FPs, "
        f"intraprocedural finds "
        f"{intra.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK)}"
    )
    assert interproc.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK) == 0
    assert intra.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK) == 1


def test_ablation_retry_loop_detection(benchmark):
    """Disabling §4.5 makes hand-rolled retry loops look like missing
    retry configuration."""
    from repro.corpus.snippets import Backoff, RequestSpec, RetryLoopShape
    from tests.conftest import single_request_app

    spec = RequestSpec(
        library="basichttp",
        retry_loop=RetryLoopShape.CATCH_DEPENDENT,
        backoff=Backoff.EXPONENTIAL,
    )
    apk, _ = single_request_app(spec)

    with_loops = NChecker().scan(apk)
    options = NCheckerOptions(detect_retry_loops=False)
    without_loops = benchmark.pedantic(
        NChecker(options=options).scan, args=(apk,), rounds=1, iterations=1
    )
    assert with_loops.count_of(DefectKind.MISSED_RETRY) == 0
    assert without_loops.count_of(DefectKind.MISSED_RETRY) == 1


def test_ablation_summary_engine(benchmark, corpus):
    """Interprocedural summaries vs the one-hop legacy walks.

    On the open-source corpus (whose defects sit within one hop of the
    request) the two modes must agree — the engine is a strict
    generalisation.  On apps that pass the configured client through
    helper frames, only summary mode suppresses the false alarms.  The
    per-APK session cache also makes repeat scans cheaper: re-scanning the
    corpus builds no new call graph, so there is one build per distinct
    app.
    """
    import time

    from repro.corpus.appbuilder import AppBuilder
    from repro.ir import Local

    def deep_chain_app(package):
        app = AppBuilder(package)
        activity = app.activity("MainActivity")
        client_cls = "com.turbomanage.httpclient.BasicHttpClient"
        entry = activity.method("onClick", params=[("android.view.View", "v")])
        client = entry.new(client_cls, "c")
        entry.call(client, "setReadWriteTimeout", 7000)
        entry.call(client, "setMaxRetries", 2)
        entry.call(Local("this"), "go", client, cls=activity.name)
        entry.ret()
        activity.add(entry)
        mid = activity.method("go", params=[(client_cls, "c1")])
        mid.call(Local("this"), "issue", Local("c1"), cls=activity.name)
        mid.ret()
        activity.add(mid)
        leaf = activity.method("issue", params=[(client_cls, "c2")])
        leaf.call(Local("c2"), "get", "http://x", cls=client_cls, ret="r")
        leaf.ret()
        activity.add(leaf)
        return app.build()

    deep_apps = [deep_chain_app(f"com.abl.deep{i}") for i in range(4)]
    truths = [t for _, t in corpus]

    legacy_checker = NChecker(options=NCheckerOptions(summary_based=False))
    start = time.perf_counter()
    legacy_results = [legacy_checker.scan(apk) for apk, _ in corpus]
    legacy_s = time.perf_counter() - start

    summary_checker = NChecker()
    with use_metrics() as summary_registry:
        start = time.perf_counter()
        summary_results = benchmark.pedantic(
            lambda: [summary_checker.scan(apk) for apk, _ in corpus],
            rounds=1, iterations=1,
        )
        summary_s = time.perf_counter() - start

    legacy_table = table9_confusions(truths, legacy_results)
    summary_table = table9_confusions(truths, summary_results)
    legacy_correct = sum(c.correct for c in legacy_table.values())
    summary_correct = sum(c.correct for c in summary_table.values())
    legacy_fp = sum(c.false_positives for c in legacy_table.values())
    summary_fp = sum(c.false_positives for c in summary_table.values())

    deep_config_fps = {
        "summary": sum(
            NChecker().scan(apk).count_of(
                DefectKind.MISSED_TIMEOUT, DefectKind.MISSED_RETRY
            )
            for apk in deep_apps
        ),
        "one-hop": sum(
            NChecker(options=NCheckerOptions(summary_based=False))
            .scan(apk)
            .count_of(DefectKind.MISSED_TIMEOUT, DefectKind.MISSED_RETRY)
            for apk in deep_apps
        ),
    }

    # Cache effectiveness: the second sweep reuses every session.
    with use_metrics(summary_registry):
        start = time.perf_counter()
        for apk, _ in corpus:
            summary_checker.scan(apk)
        rescan_s = time.perf_counter() - start
    callgraph_builds = summary_registry.counter_value("artifact.callgraph.builds")

    print(
        f"\ncorpus ({len(corpus)} apps): one-hop correct={legacy_correct} "
        f"FP={legacy_fp} acc={overall_accuracy(legacy_table):.3f} "
        f"in {legacy_s * 1000:.0f} ms\n"
        f"                  summaries correct={summary_correct} "
        f"FP={summary_fp} acc={overall_accuracy(summary_table):.3f} "
        f"in {summary_s * 1000:.0f} ms (rescan {rescan_s * 1000:.0f} ms, "
        f"{callgraph_builds} call-graph builds)\n"
        f"deep config chains ({len(deep_apps)} apps): "
        f"one-hop FPs={deep_config_fps['one-hop']}, "
        f"summary FPs={deep_config_fps['summary']}"
    )

    assert summary_correct >= legacy_correct
    assert summary_fp <= legacy_fp
    assert deep_config_fps["one-hop"] == 2 * len(deep_apps)
    assert deep_config_fps["summary"] == 0
    assert callgraph_builds == len({apk.package for apk, _ in corpus})


def test_ablation_notification_depth(benchmark):
    """Callee search depth 0 misses notifications behind helper methods.

    The depth knob only exists on the legacy walk, so both scans pin
    ``summary_based=False`` (the engine's facts are transitive and would
    find the helper's Toast at any depth)."""
    from repro.corpus.appbuilder import AppBuilder
    from repro.corpus.snippets import RequestSpec, inject_request
    from repro.ir import Local

    app = AppBuilder("com.abl.depth")
    activity = app.activity("MainActivity")
    body = activity.method("onClick", params=[("android.view.View", "v")])
    client = body.new("com.turbomanage.httpclient.BasicHttpClient", "c")
    region = body.begin_try()
    body.call(client, "get", "http://x", ret="r")
    body.begin_catch(region, "java.io.IOException")
    body.call(Local("this"), "showError", cls=activity.name)
    body.end_try(region)
    body.ret()
    activity.add(body)
    helper = activity.method("showError")
    toast = helper.static_call(
        "android.widget.Toast", "makeText", "ctx", "err", 0,
        ret="t", return_type="android.widget.Toast",
    )
    helper.call(toast, "show", cls="android.widget.Toast")
    helper.ret()
    activity.add(helper)
    apk = app.build()

    deep = benchmark.pedantic(
        NChecker(
            options=NCheckerOptions(summary_based=False, notification_callee_depth=2)
        ).scan,
        args=(apk,), rounds=1, iterations=1,
    )
    shallow = NChecker(
        options=NCheckerOptions(summary_based=False, notification_callee_depth=0)
    ).scan(apk)
    assert deep.count_of(DefectKind.MISSED_NOTIFICATION) == 0
    assert shallow.count_of(DefectKind.MISSED_NOTIFICATION) == 1
