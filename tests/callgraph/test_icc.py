"""Inter-component-communication analysis tests (the §4.7 extension)."""

import pytest

from repro.core import DefectKind, NChecker, NCheckerOptions
from repro.corpus import build_opensource_corpus, overall_accuracy, table9_confusions
from repro.corpus.appbuilder import AppBuilder
from repro.corpus.snippets import Connectivity, Notification, RequestSpec, inject_request
from repro.corpus.opensource import _add_error_display_activity, _add_launcher_with_check
from repro.libmodels import default_registry
from repro.pipeline import ICC_MODEL, ArtifactStore


def icc_model(apk):
    return ArtifactStore(apk, default_registry()).get(ICC_MODEL)


def _fp_app():
    """Launcher checks connectivity, then starts the requesting activity."""
    app = AppBuilder("com.icc.fp")
    _add_launcher_with_check(app)
    activity = app.activity("MainActivity")
    body = activity.method("onClick", params=[("android.view.View", "v")])
    inject_request(
        app, body, RequestSpec(connectivity=Connectivity.INTER_COMPONENT),
        user_initiated=True,
    )
    body.ret()
    activity.add(body)
    return app.build()


def _broadcast_app():
    app = AppBuilder("com.icc.bcast")
    _add_error_display_activity(app)
    activity = app.activity("MainActivity")
    body = activity.method("onClick", params=[("android.view.View", "v")])
    inject_request(
        app, body,
        RequestSpec(
            connectivity=Connectivity.GUARDED,
            with_notification=Notification.BROADCAST,
        ),
        user_initiated=True,
    )
    body.ret()
    activity.add(body)
    return app.build()


class TestModel:
    def test_launch_site_resolved(self):
        model = icc_model(_fp_app())
        assert len(model.launches) == 1
        assert model.launches[0].target == "com.icc.fp.MainActivity"

    def test_broadcast_and_display_found(self):
        model = icc_model(_broadcast_app())
        assert len(model.broadcasts) == 1
        assert model.ui_broadcast_receivers == {"com.icc.bcast.ErrorDisplayActivity"}
        assert model.broadcasts_displayed

    def test_broadcast_without_display_not_credited(self):
        app = AppBuilder("com.icc.nodisp")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        inject_request(
            app, body,
            RequestSpec(
                connectivity=Connectivity.GUARDED,
                with_notification=Notification.BROADCAST,
            ),
            user_initiated=True,
        )
        body.ret()
        activity.add(body)
        model = icc_model(app.build())
        assert not model.broadcasts_displayed

    def test_app_without_icc_has_empty_model(self):
        app = AppBuilder("com.icc.plain")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        inject_request(app, body, RequestSpec(), user_initiated=True)
        body.ret()
        activity.add(body)
        model = icc_model(app.build())
        assert model.launches == [] and model.broadcasts == []


class TestCheckerIntegration:
    def test_icc_suppresses_connectivity_fp(self):
        apk = _fp_app()
        default = NChecker().scan(apk)
        icc = NChecker(options=NCheckerOptions(inter_component=True)).scan(apk)
        assert default.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK) == 1
        assert icc.count_of(DefectKind.MISSED_CONNECTIVITY_CHECK) == 0

    def test_icc_suppresses_notification_fp(self):
        apk = _broadcast_app()
        default = NChecker().scan(apk)
        icc = NChecker(options=NCheckerOptions(inter_component=True)).scan(apk)
        assert default.count_of(DefectKind.MISSED_NOTIFICATION) == 1
        assert icc.count_of(DefectKind.MISSED_NOTIFICATION) == 0

    def test_icc_does_not_suppress_real_defects(self):
        app = AppBuilder("com.icc.real")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        inject_request(app, body, RequestSpec(), user_initiated=True)
        body.ret()
        activity.add(body)
        apk = app.build()
        default = NChecker().scan(apk)
        icc = NChecker(options=NCheckerOptions(inter_component=True)).scan(apk)
        assert default.summary() == icc.summary()

    def test_icc_restores_perfect_fp_rate_on_table9_corpus(self):
        corpus = build_opensource_corpus()
        truths = [t for _, t in corpus]
        checker = NChecker(options=NCheckerOptions(inter_component=True))
        results = [checker.scan(apk) for apk, _ in corpus]
        table = table9_confusions(truths, results)
        assert sum(c.false_positives for c in table.values()) == 0
        assert sum(c.false_negatives for c in table.values()) == 5  # FNs remain

    def test_icc_plus_guard_aware_is_perfect(self):
        corpus = build_opensource_corpus()
        truths = [t for _, t in corpus]
        options = NCheckerOptions(
            inter_component=True, guard_aware_connectivity=True
        )
        checker = NChecker(options=options)
        results = [checker.scan(apk) for apk, _ in corpus]
        table = table9_confusions(truths, results)
        assert overall_accuracy(table) == 1.0
        assert sum(c.false_negatives for c in table.values()) == 0
