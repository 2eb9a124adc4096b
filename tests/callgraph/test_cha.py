"""Call-graph construction tests: direct, async, and callback edges."""

from repro.app import APK, Manifest
from repro.callgraph import (
    EDGE_ASYNC_TASK,
    EDGE_LIB_CALLBACK,
    EDGE_RUNNABLE,
)
from repro.ir import ClassBuilder, Local
from repro.libmodels import default_registry
from repro.pipeline import CALLGRAPH, ArtifactStore


def _graph(classes, activities=("com.x.Main",)):
    manifest = Manifest("com.x", activities=list(activities))
    apk = APK(manifest, classes)
    return ArtifactStore(apk, default_registry()).get(CALLGRAPH)


class TestDirectEdges:
    def test_intra_class_call(self):
        cb = ClassBuilder("com.x.Main", "android.app.Activity")
        b = cb.method("onClick", params=[("android.view.View", "v")])
        b.call(Local("this"), "helper", cls="com.x.Main")
        b.ret()
        cb.add(b)
        b = cb.method("helper")
        b.ret()
        cb.add(b)
        graph = _graph([cb.build()])
        edges = graph.callees(("com.x.Main", "onClick", 1))
        assert any(e.callee == ("com.x.Main", "helper", 0) for e in edges)

    def test_cross_class_call_via_allocation(self):
        helper = ClassBuilder("com.x.Api")
        b = helper.method("fetch")
        b.ret()
        helper.add(b)
        main = ClassBuilder("com.x.Main", "android.app.Activity")
        b = main.method("onClick", params=[("android.view.View", "v")])
        api = b.new("com.x.Api", "api")
        b.call(api, "fetch")
        b.ret()
        main.add(b)
        graph = _graph([main.build(), helper.build()])
        edges = graph.callees(("com.x.Main", "onClick", 1))
        assert any(e.callee == ("com.x.Api", "fetch", 0) for e in edges)

    def test_virtual_dispatch_resolves_in_superclass(self):
        base = ClassBuilder("com.x.Base")
        b = base.method("shared")
        b.ret()
        base.add(b)
        derived = ClassBuilder("com.x.Derived", "com.x.Base")
        b = derived.method("stub")
        b.ret()
        derived.add(b)
        main = ClassBuilder("com.x.Main", "android.app.Activity")
        b = main.method("onClick", params=[("android.view.View", "v")])
        obj = b.new("com.x.Derived", "d")
        b.call(obj, "shared")
        b.ret()
        main.add(b)
        graph = _graph([main.build(), base.build(), derived.build()])
        edges = graph.callees(("com.x.Main", "onClick", 1))
        assert any(e.callee == ("com.x.Base", "shared", 0) for e in edges)


class TestAsyncTaskEdges:
    def test_execute_wires_task_callbacks(self):
        task = ClassBuilder("com.x.Task", "android.os.AsyncTask")
        for name in ("doInBackground", "onPostExecute"):
            b = task.method(name)
            b.ret()
            task.add(b)
        main = ClassBuilder("com.x.Main", "android.app.Activity")
        b = main.method("onClick", params=[("android.view.View", "v")])
        t = b.new("com.x.Task", "t")
        b.call(t, "execute")
        b.ret()
        main.add(b)
        graph = _graph([main.build(), task.build()])
        edges = graph.callees(("com.x.Main", "onClick", 1))
        kinds = {(e.callee[1], e.kind) for e in edges}
        assert ("doInBackground", EDGE_ASYNC_TASK) in kinds
        assert ("onPostExecute", EDGE_ASYNC_TASK) in kinds

    def test_non_asynctask_execute_not_wired(self):
        fake = ClassBuilder("com.x.NotATask")
        b = fake.method("doInBackground")
        b.ret()
        fake.add(b)
        main = ClassBuilder("com.x.Main", "android.app.Activity")
        b = main.method("onClick", params=[("android.view.View", "v")])
        t = b.new("com.x.NotATask", "t")
        b.call(t, "execute")
        b.ret()
        main.add(b)
        graph = _graph([main.build(), fake.build()])
        edges = graph.callees(("com.x.Main", "onClick", 1))
        assert not any(e.kind == EDGE_ASYNC_TASK for e in edges)


class TestRunnableEdges:
    def test_thread_start_wires_run(self):
        worker = ClassBuilder("com.x.Worker", "java.lang.Thread")
        b = worker.method("run")
        b.ret()
        worker.add(b)
        main = ClassBuilder("com.x.Main", "android.app.Activity")
        b = main.method("onClick", params=[("android.view.View", "v")])
        w = b.new("com.x.Worker", "w")
        b.call(w, "start")
        b.ret()
        main.add(b)
        graph = _graph([main.build(), worker.build()])
        edges = graph.callees(("com.x.Main", "onClick", 1))
        assert any(
            e.callee == ("com.x.Worker", "run", 0) and e.kind == EDGE_RUNNABLE
            for e in edges
        )

    def test_handler_post_wires_runnable(self):
        runnable = ClassBuilder("com.x.Job", interfaces=["java.lang.Runnable"])
        b = runnable.method("run")
        b.ret()
        runnable.add(b)
        main = ClassBuilder("com.x.Main", "android.app.Activity")
        b = main.method("onClick", params=[("android.view.View", "v")])
        h = b.new("android.os.Handler", "h")
        job = b.new("com.x.Job", "job")
        b.call(h, "post", job, cls="android.os.Handler")
        b.ret()
        main.add(b)
        graph = _graph([main.build(), runnable.build()])
        edges = graph.callees(("com.x.Main", "onClick", 1))
        assert any(e.callee == ("com.x.Job", "run", 0) for e in edges)


class TestLibraryCallbackEdges:
    def test_direct_listener_argument(self):
        handler = ClassBuilder(
            "com.x.H", interfaces=["com.loopj.android.http.AsyncHttpResponseHandler"]
        )
        b = handler.method("onFailure", params=[("int", "code")])
        b.ret()
        handler.add(b)
        main = ClassBuilder("com.x.Main", "android.app.Activity")
        b = main.method("onClick", params=[("android.view.View", "v")])
        client = b.new("com.loopj.android.http.AsyncHttpClient", "client")
        h = b.new("com.x.H", "h")
        b.call(client, "get", "http://x", h)
        b.ret()
        main.add(b)
        graph = _graph([main.build(), handler.build()])
        edges = graph.callees(("com.x.Main", "onClick", 1))
        assert any(
            e.callee == ("com.x.H", "onFailure", 1) and e.kind == EDGE_LIB_CALLBACK
            for e in edges
        )

    def test_listener_through_request_constructor(self):
        """Volley's shape: the listener rides inside the Request object."""
        err = ClassBuilder(
            "com.x.Err", interfaces=["com.android.volley.Response$ErrorListener"]
        )
        b = err.method("onErrorResponse", params=[("com.android.volley.VolleyError", "e")])
        b.ret()
        err.add(b)
        main = ClassBuilder("com.x.Main", "android.app.Activity")
        b = main.method("onClick", params=[("android.view.View", "v")])
        q = b.new("com.android.volley.RequestQueue", "q")
        e = b.new("com.x.Err", "e")
        req = b.new(
            "com.android.volley.toolbox.StringRequest", "req", args=[0, "http://x", e]
        )
        b.call(q, "add", req)
        b.ret()
        main.add(b)
        graph = _graph([main.build(), err.build()])
        edges = graph.callees(("com.x.Main", "onClick", 1))
        assert any(
            e2.callee == ("com.x.Err", "onErrorResponse", 1)
            and e2.kind == EDGE_LIB_CALLBACK
            for e2 in edges
        )


class TestReachability:
    def test_reachable_from_entries(self):
        cb = ClassBuilder("com.x.Main", "android.app.Activity")
        b = cb.method("onClick", params=[("android.view.View", "v")])
        b.call(Local("this"), "helper", cls="com.x.Main")
        b.ret()
        cb.add(b)
        b = cb.method("helper")
        b.ret()
        cb.add(b)
        b = cb.method("dead")
        b.ret()
        cb.add(b)
        graph = _graph([cb.build()])
        reachable = graph.reachable_from_entries()
        assert ("com.x.Main", "helper", 0) in reachable
        assert ("com.x.Main", "dead", 0) not in reachable
