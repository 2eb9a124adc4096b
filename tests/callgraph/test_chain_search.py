"""Differential tests of the cone-pruned chain search.

The search in :mod:`repro.callgraph.reachability` skips every method that
cannot reach the target.  These tests check it against the exhaustive
search it replaced, kept below as the reference, over random call graphs
with cycles, self-loops, several entries per key and unreachable islands.
"""

from collections import deque

from hypothesis import given, seed, settings, strategies as st

from repro.app import ComponentKind
from repro.callgraph import (
    CallChain,
    CallEdge,
    CallGraph,
    EntryPoint,
    chains_to_method,
    chains_to_methods,
    entries_reaching,
)


class _Graph(CallGraph):
    """A call graph given directly as methods, edges and entry points."""

    def __init__(self, methods, edges, entries):
        self.methods = dict.fromkeys(methods)
        self.entry_points = entries
        self.out_edges = {}
        self.in_edges = {}
        for edge in edges:
            self.out_edges.setdefault(edge.caller, []).append(edge)
            self.in_edges.setdefault(edge.callee, []).append(edge)


def _reference_chains(graph, target, max_chains=32, max_depth=24):
    """The exhaustive DFS from every entry point, as it was before cone
    pruning, with the ``max_chains`` fix: an entry that is the target
    honours the cap, and the entry loop stops once the cap is reached."""
    chains = []
    for entry in graph.entry_points:
        if len(chains) >= max_chains:  # the fix
            break
        if entry.key not in graph.methods:
            continue
        if entry.key == target:
            chains.append(CallChain(entry, ()))
            continue
        stack = [(entry.key, ())]
        while stack and len(chains) < max_chains:
            node, path = stack.pop()
            if len(path) >= max_depth:
                continue
            for edge in graph.callees(node):
                if any(e.caller == edge.callee for e in path):
                    continue
                new_path = path + (edge,)
                if edge.callee == target:
                    chains.append(CallChain(entry, new_path))
                    if len(chains) >= max_chains:
                        break
                else:
                    stack.append((edge.callee, new_path))
    return chains


def _reference_entries(graph, target):
    """One forward BFS per entry point."""
    reaching = []
    for entry in graph.entry_points:
        if entry.key not in graph.methods:
            continue
        seen, frontier = {entry.key}, deque([entry.key])
        while frontier:
            for edge in graph.callees(frontier.popleft()):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    frontier.append(edge.callee)
        if target in seen:
            reaching.append(entry)
    return reaching


def _key(i):
    return ("com.gen.C", f"m{i}", 0)


_KINDS = st.sampled_from([None, ComponentKind.ACTIVITY, ComponentKind.SERVICE])


@st.composite
def _graphs(draw):
    """A random call graph.  Nodes past ``n_methods`` are keys with no
    method (entries on them are skipped); edges may repeat, loop on
    themselves or form cycles; entries may repeat a key."""
    n_methods = draw(st.integers(1, 9))
    n_keys = n_methods + draw(st.integers(0, 2))
    node = st.integers(0, n_keys - 1)
    method = st.integers(0, n_methods - 1)
    edges = [
        CallEdge(_key(caller), site, _key(callee))
        for caller, site, callee in draw(
            st.lists(st.tuples(method, st.integers(0, 3), method), max_size=24)
        )
    ]
    entries = [
        EntryPoint(_key(i), kind, is_ui)
        for i, kind, is_ui in draw(
            st.lists(st.tuples(node, _KINDS, st.booleans()), max_size=8)
        )
    ]
    graph = _Graph([_key(i) for i in range(n_methods)], edges, entries)
    targets = [_key(i) for i in draw(st.lists(node, min_size=1, max_size=4))]
    return graph, targets


_LIMITS = st.tuples(st.integers(1, 6), st.integers(0, 7))


class TestDifferential:
    @seed(20160418)
    @settings(max_examples=400, deadline=None)
    @given(_graphs(), _LIMITS)
    def test_batch_matches_reference(self, graph_targets, limits):
        graph, targets = graph_targets
        max_chains, max_depth = limits
        found = chains_to_methods(graph, targets, max_chains, max_depth)
        assert list(found) == list(dict.fromkeys(targets))
        for target in targets:
            expected = _reference_chains(graph, target, max_chains, max_depth)
            assert found[target] == expected
            assert chains_to_method(graph, target, max_chains, max_depth) == expected

    @seed(20160418)
    @settings(max_examples=200, deadline=None)
    @given(_graphs())
    def test_entries_reaching_matches_reference(self, graph_targets):
        graph, targets = graph_targets
        for target in targets:
            assert entries_reaching(graph, target) == _reference_entries(
                graph, target
            )


class TestChainCap:
    def _graph(self):
        """Entry ``m0`` calls ``m1``, which is an entry point itself."""
        entries = [
            EntryPoint(_key(0), ComponentKind.ACTIVITY, False),
            EntryPoint(_key(1), ComponentKind.SERVICE, False),
        ]
        return _Graph([_key(0), _key(1)], [CallEdge(_key(0), 0, _key(1))], entries)

    def test_entry_that_is_the_target_honours_the_cap(self):
        chains = chains_to_method(self._graph(), _key(1), max_chains=1)
        assert [(c.entry.key, len(c)) for c in chains] == [(_key(0), 1)]

    def test_cap_is_per_target(self):
        graph = self._graph()
        found = chains_to_methods(graph, [_key(0), _key(1)], max_chains=1)
        assert [len(found[_key(0)]), len(found[_key(1)])] == [1, 1]
