"""Strongly connected components of the call graph (Tarjan, iterative).

The interprocedural summary engine (`repro.dataflow.summaries`) computes
per-method summaries bottom-up: a method's summary depends only on its
callees' summaries, so callees must be processed first.  Tarjan's
algorithm emits SCCs of the condensation DAG in reverse topological
order — every component is emitted before any component with an edge
*into* it — which for caller→callee edges is exactly callee-first
(bottom-up) order.  Mutual recursion lands in one multi-member SCC,
which the engine solves by fixpoint iteration (widening to ⊤ if it
fails to settle).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence, TypeVar

Node = TypeVar("Node", bound=Hashable)


def strongly_connected_components(
    nodes: Iterable[Node],
    successors: Callable[[Node], Iterable[Node]],
) -> list[tuple[Node, ...]]:
    """SCCs of the graph, in reverse topological (callee-first) order.

    Iterative Tarjan: app call graphs can chain hundreds of frames deep
    (generated corpus apps, pathological wrappers), which would blow the
    interpreter's recursion limit.
    """
    index_of: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    sccs: list[tuple[Node, ...]] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        # Each work item is (node, iterator over remaining successors).
        work: list[tuple[Node, Iterable[Node]]] = [(root, iter(successors(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succ_iter = work[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(component))
    return sccs


def condensation_order(
    nodes: Sequence[Node],
    successors: Callable[[Node], Iterable[Node]],
) -> tuple[list[tuple[Node, ...]], dict[Node, int]]:
    """(SCCs in callee-first order, node → SCC position map)."""
    sccs = strongly_connected_components(nodes, successors)
    position = {node: i for i, scc in enumerate(sccs) for node in scc}
    return sccs, position

