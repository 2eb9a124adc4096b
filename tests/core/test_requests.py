"""Request extraction and context inference tests (paper §4.4.2)."""

import pytest

from repro.core.requests import find_requests
from repro.corpus.appbuilder import AppBuilder
from repro.corpus.snippets import RequestSpec, inject_request
from repro.libmodels import HttpMethod, default_registry
from repro.pipeline import ArtifactStore

from tests.conftest import single_request_app


def _requests(apk):
    ctx = ArtifactStore(apk, default_registry()).context
    return find_requests(ctx)


class TestExtraction:
    def test_one_request_per_target_call(self):
        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        requests = _requests(apk)
        assert len(requests) == 1
        assert requests[0].library.key == "basichttp"

    def test_location_format(self):
        apk, _ = single_request_app(RequestSpec())
        request = _requests(apk)[0]
        assert request.location().startswith("com.test.app.MainActivity.onClick:")

    def test_config_local_is_receiver_for_blocking_libs(self):
        apk, _ = single_request_app(RequestSpec(library="basichttp"))
        request = _requests(apk)[0]
        assert request.config_local() == request.invoke.base

    def test_config_local_is_request_arg_for_volley(self):
        apk, _ = single_request_app(RequestSpec(library="volley"))
        request = _requests(apk)[0]
        assert request.config_local() != request.invoke.base
        assert request.config_local() == request.invoke.args[0]


class TestContextInference:
    def test_activity_request_is_user_initiated(self):
        apk, _ = single_request_app(RequestSpec())
        request = _requests(apk)[0]
        assert request.user_initiated and not request.background

    def test_service_request_is_background(self):
        apk, _ = single_request_app(RequestSpec(), in_service=True)
        request = _requests(apk)[0]
        assert request.background and not request.user_initiated

    def test_request_reachable_from_both_contexts(self):
        """A helper called from an Activity *and* a Service yields 'both'."""
        from repro.core.findings import context_of
        from repro.ir import Local

        app = AppBuilder("com.ctx.both")
        helper = app.new_class("Api")
        body = helper.method("fetch")
        client = body.new("com.turbomanage.httpclient.BasicHttpClient", "c")
        body.call(client, "get", "http://x", ret="r")
        body.ret()
        helper.add(body)

        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        api = body.new("com.ctx.both.Api", "api")
        body.call(api, "fetch")
        body.ret()
        activity.add(body)

        service = app.service("SyncService")
        body = service.method(
            "onStartCommand",
            params=[("android.content.Intent", "i"), ("int", "f")],
            return_type="int",
        )
        api = body.new("com.ctx.both.Api", "api")
        body.call(api, "fetch")
        body.ret(0)
        service.add(body)

        request = _requests(app.build())[0]
        assert request.user_initiated and request.background
        assert context_of(request) == "both"


class TestHttpMethodInference:
    @pytest.mark.parametrize(
        "library,expected",
        [
            ("basichttp", HttpMethod.POST),
            ("asynchttp", HttpMethod.POST),
            ("volley", HttpMethod.POST),
            ("apache", HttpMethod.POST),
            ("httpurlconnection", HttpMethod.POST),
        ],
    )
    def test_post_detected(self, library, expected):
        apk, _ = single_request_app(RequestSpec(library=library, http_post=True))
        request = _requests(apk)[0]
        assert request.http_method is expected

    @pytest.mark.parametrize("library", ["basichttp", "asynchttp", "volley"])
    def test_get_detected(self, library):
        apk, _ = single_request_app(RequestSpec(library=library))
        request = _requests(apk)[0]
        assert request.http_method is HttpMethod.GET

    def test_okhttp_defaults_to_any(self):
        apk, _ = single_request_app(RequestSpec(library="okhttp"))
        request = _requests(apk)[0]
        assert request.http_method is HttpMethod.ANY

    def test_volley_unknown_code_stays_any(self):
        from repro.ir import Const

        app = AppBuilder("com.ctx.volley")
        activity = app.activity("MainActivity")
        body = activity.method("onClick", params=[("android.view.View", "v")])
        queue = body.new("com.android.volley.RequestQueue", "q")
        request_obj = body.new(
            "com.android.volley.toolbox.StringRequest", "req",
            args=[Const(99), "http://x"],  # not a known method code
        )
        body.call(queue, "add", request_obj)
        body.ret()
        activity.add(body)
        request = _requests(app.build())[0]
        assert request.http_method is HttpMethod.ANY


def _modular_apk(modules: int):
    """One app merging the first ``modules`` paper-profile corpus apps."""
    from repro.app import APK, Manifest
    from repro.corpus import PAPER_PROFILE, CorpusGenerator

    generator = CorpusGenerator(PAPER_PROFILE)
    manifest = Manifest("com.test.modular")
    classes = []
    for index in range(modules):
        apk, _ = generator.generate_app(index)
        for kind, name in apk.manifest.components():
            manifest.declare(kind, name)
        classes.extend(apk.classes())
    return APK(manifest, classes)


def _callee_queries_per_request(modules: int) -> float:
    ctx = ArtifactStore(_modular_apk(modules), default_registry()).context
    graph = ctx.callgraph
    queries = 0
    callees = graph.callees

    def counting(key):
        nonlocal queries
        queries += 1
        return callees(key)

    graph.callees = counting
    requests = find_requests(ctx)
    assert requests
    return queries / len(requests)


class TestScaling:
    def test_chain_search_work_per_request_is_flat_in_app_size(self):
        """The chain search walks only each request's backward cone, so
        its call-graph queries per request do not grow with the number
        of entry points an app has."""
        small, mid, large = (_callee_queries_per_request(n) for n in (10, 20, 40))
        assert mid <= 1.5 * small
        assert large <= 1.5 * small
