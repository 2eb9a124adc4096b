"""Reachability and call-chain extraction over the call graph.

NChecker's reports include the call stack from an entry point to the
buggy request (paper §4.6, Fig 7); the context inference (§4.4.2) needs
to know *which* entry points reach a request.  Both are path queries
answered here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cha import CallEdge, CallGraph
from .entrypoints import EntryPoint, MethodKey


@dataclass(frozen=True)
class CallChain:
    """A path of call edges from an entry point to a call site."""

    entry: EntryPoint
    edges: tuple[CallEdge, ...]

    @property
    def target_method(self) -> MethodKey:
        return self.edges[-1].callee if self.edges else self.entry.key

    def frames(self) -> list[tuple[MethodKey, int]]:
        """(method, call-site statement index) frames, outermost first."""
        return [(edge.caller, edge.stmt_index) for edge in self.edges]

    def __len__(self) -> int:
        return len(self.edges)


def chains_to_method(
    graph: CallGraph,
    target: MethodKey,
    max_chains: int = 32,
    max_depth: int = 24,
) -> list[CallChain]:
    """Call chains from each entry point to ``target``; see
    :func:`chains_to_methods`."""
    return chains_to_methods(graph, (target,), max_chains, max_depth)[target]


def chains_to_methods(
    graph: CallGraph,
    targets: Iterable[MethodKey],
    max_chains: int = 32,
    max_depth: int = 24,
) -> dict[MethodKey, list[CallChain]]:
    """Call chains from each entry point to each target (DFS, cycle-free).

    Entries are tried in ``graph.entry_points`` order and each entry's
    chains come out in DFS order.  A chain never revisits a method that
    already called along it, is at most ``max_depth`` edges long, and
    stops at the target.  At most ``max_chains`` chains are kept per
    target, which bounds path explosion.

    The search is confined to the target's backward cone, the methods
    that can reach it: an entry or callee outside the cone can never
    yield a chain, so skipping it leaves the chains and their order
    unchanged.  The cost per target is one reverse BFS plus a DFS over
    the cone, independent of the rest of the app.
    """
    positions: dict[MethodKey, list[int]] = {}
    for pos, entry in enumerate(graph.entry_points):
        if entry.key in graph.methods:
            positions.setdefault(entry.key, []).append(pos)
    result: dict[MethodKey, list[CallChain]] = {}
    for target in targets:
        if target in result:
            continue
        cone = _backward_cone(graph, target)
        entries = [
            graph.entry_points[pos]
            for pos in sorted(p for key in cone for p in positions.get(key, ()))
        ]
        result[target] = _chains_in_cone(
            graph, target, cone, entries, max_chains, max_depth
        )
    return result


def _chains_in_cone(
    graph: CallGraph,
    target: MethodKey,
    cone: set[MethodKey],
    entries: list[EntryPoint],
    max_chains: int,
    max_depth: int,
) -> list[CallChain]:
    chains: list[CallChain] = []
    for entry in entries:
        if len(chains) >= max_chains:
            break
        if entry.key == target:
            chains.append(CallChain(entry, ()))
            continue
        stack: list[tuple[MethodKey, tuple[CallEdge, ...]]] = [(entry.key, ())]
        while stack and len(chains) < max_chains:
            node, path = stack.pop()
            if len(path) >= max_depth:
                continue
            for edge in graph.callees(node):
                callee = edge.callee
                if callee not in cone:
                    continue
                if any(e.caller == callee for e in path):
                    continue  # avoid cycles
                new_path = path + (edge,)
                if callee == target:
                    chains.append(CallChain(entry, new_path))
                    if len(chains) >= max_chains:
                        break
                else:
                    stack.append((callee, new_path))
    return chains


def _backward_cone(graph: CallGraph, target: MethodKey) -> set[MethodKey]:
    """``target`` and every method from which it is reachable."""
    cone = graph.transitive_callers((target,))
    cone.add(target)
    return cone


def entries_reaching(graph: CallGraph, target: MethodKey) -> list[EntryPoint]:
    """Entry points from which ``target`` is reachable."""
    cone = _backward_cone(graph, target)
    return [
        entry
        for entry in graph.entry_points
        if entry.key in cone and entry.key in graph.methods
    ]
