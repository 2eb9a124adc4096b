"""Call-chain extraction tests."""

from repro.app import APK, Manifest
from repro.callgraph import chains_to_method, entries_reaching
from repro.ir import ClassBuilder, Local
from repro.libmodels import default_registry
from repro.pipeline import CALLGRAPH, ArtifactStore


def _layered_app():
    """onClick -> level1 -> level2; onStartCommand -> level2."""
    main = ClassBuilder("com.x.Main", "android.app.Activity")
    b = main.method("onClick", params=[("android.view.View", "v")])
    b.call(Local("this"), "level1", cls="com.x.Main")
    b.ret()
    main.add(b)
    b = main.method("level1")
    api = b.new("com.x.Api", "api")
    b.call(api, "level2")
    b.ret()
    main.add(b)

    api = ClassBuilder("com.x.Api")
    b = api.method("level2")
    b.ret()
    api.add(b)

    svc = ClassBuilder("com.x.Sync", "android.app.Service")
    b = svc.method(
        "onStartCommand",
        params=[("android.content.Intent", "i"), ("int", "f")],
        return_type="int",
    )
    a = b.new("com.x.Api", "a")
    b.call(a, "level2")
    b.ret(0)
    svc.add(b)

    manifest = Manifest("com.x", activities=["com.x.Main"], services=["com.x.Sync"])
    apk = APK(manifest, [main.build(), api.build(), svc.build()])
    return ArtifactStore(apk, default_registry()).get(CALLGRAPH)


class TestChains:
    def test_chains_reach_target_from_both_entries(self):
        graph = _layered_app()
        chains = chains_to_method(graph, ("com.x.Api", "level2", 0))
        entry_names = {c.entry.key[1] for c in chains}
        assert "onClick" in entry_names
        assert "onStartCommand" in entry_names

    def test_chain_frames_are_ordered(self):
        graph = _layered_app()
        chains = chains_to_method(graph, ("com.x.Api", "level2", 0))
        chain = next(c for c in chains if c.entry.key[1] == "onClick")
        frames = chain.frames()
        assert frames[0][0] == ("com.x.Main", "onClick", 1)
        assert chain.target_method == ("com.x.Api", "level2", 0)

    def test_entry_equal_to_target(self):
        graph = _layered_app()
        chains = chains_to_method(graph, ("com.x.Main", "onClick", 1))
        assert any(len(c) == 0 for c in chains)

    def test_entries_reaching(self):
        graph = _layered_app()
        entries = entries_reaching(graph, ("com.x.Api", "level2", 0))
        kinds = {(e.key[1], e.background) for e in entries}
        assert ("onClick", False) in kinds
        assert ("onStartCommand", True) in kinds

    def test_unreachable_method_has_no_chains(self):
        main = ClassBuilder("com.x.Main", "android.app.Activity")
        b = main.method("onClick", params=[("android.view.View", "v")])
        b.ret()
        main.add(b)
        b = main.method("orphan")
        b.ret()
        main.add(b)
        apk = APK(Manifest("com.x", activities=["com.x.Main"]), [main.build()])
        graph = ArtifactStore(apk, default_registry()).get(CALLGRAPH)
        assert chains_to_method(graph, ("com.x.Main", "orphan", 0)) == []

    def test_max_chains_respected(self):
        graph = _layered_app()
        chains = chains_to_method(graph, ("com.x.Api", "level2", 0), max_chains=1)
        assert len(chains) == 1
