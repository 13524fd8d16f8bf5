"""König 1-factorisation of regular bipartite graphs.

König's edge-colouring theorem: every d-regular bipartite multigraph is the
union of d perfect matchings.  The constructive proof peels off one perfect
matching at a time (each exists by Hall's theorem; we find it with our
Hopcroft-Karp implementation).

In this package 1-factorisations are used as a substrate utility (e.g. to
build alternative adversarial port numberings of bipartite regular graphs
and in tests of the factorisation stack).  Note that *general* regular
graphs need not admit a 1-factorisation — the paper points at the odd cycle
— which is exactly why the lower-bound constructions rely on Petersen
2-factorisation instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.exceptions import FactorizationError
from repro.factorization.euler import MultiEdge
from repro.matching.bipartite import maximum_bipartite_matching
from repro.portgraph.ports import Node

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["one_factorise_bipartite", "one_factorise_bipartite_nx", "is_one_factor"]


def one_factorise_bipartite(
    left: Iterable[Node],
    right: Iterable[Node],
    edges: Sequence[MultiEdge],
) -> list[list[MultiEdge]]:
    """Decompose a d-regular bipartite multigraph into d perfect matchings.

    ``edges`` must each join a *left* node to a *right* node (in either
    orientation).  Returns a list of d matchings; every matching covers all
    nodes and every edge appears in exactly one matching.
    """
    left_set = set(left)
    right_set = set(right)
    if left_set & right_set:
        raise FactorizationError("left and right sides must be disjoint")
    if len(left_set) != len(right_set):
        if edges:
            raise FactorizationError(
                "a regular bipartite graph with edges needs equal sides; "
                f"got {len(left_set)} vs {len(right_set)}"
            )
        return []

    degree: dict[Node, int] = {v: 0 for v in left_set | right_set}
    oriented: dict[Node, dict[Node, list[MultiEdge]]] = {
        u: {} for u in left_set
    }
    for edge in edges:
        if edge.u in left_set and edge.v in right_set:
            u, v = edge.u, edge.v
        elif edge.v in left_set and edge.u in right_set:
            u, v = edge.v, edge.u
        else:
            raise FactorizationError(
                f"edge {edge!r} does not join the two sides"
            )
        degree[edge.u] += 1
        degree[edge.v] += 1
        oriented[u].setdefault(v, []).append(edge)

    degree_values = set(degree.values())
    if len(degree_values) > 1:
        raise FactorizationError(
            f"1-factorisation requires a regular graph; degrees "
            f"{sorted(degree_values)}"
        )
    d = next(iter(degree_values)) if degree_values else 0

    factors: list[list[MultiEdge]] = []
    for _ in range(d):
        adjacency = {
            u: sorted((v for v, stack in heads.items() if stack), key=repr)
            for u, heads in oriented.items()
        }
        matching = maximum_bipartite_matching(adjacency)
        if len(matching) != len(left_set):
            raise FactorizationError(
                "internal error: regular bipartite graph must have a "
                "perfect matching (Hall)"
            )
        factor = [
            oriented[u][v].pop()
            for u, v in sorted(matching.items(), key=lambda kv: repr(kv[0]))
        ]
        factors.append(factor)
    return factors


def one_factorise_bipartite_nx(graph: nx.Graph) -> list[list[MultiEdge]]:
    """1-factorise a d-regular bipartite networkx graph.

    The bipartition is recovered by 2-colouring; the graph must be
    connected per component bipartite (networkx determines the sides).
    """
    import networkx as nx

    if graph.is_directed():
        raise FactorizationError("expected an undirected graph")
    try:
        colouring = nx.bipartite.color(graph)
    except nx.NetworkXError as exc:
        raise FactorizationError(f"graph is not bipartite: {exc}") from exc
    left = [v for v, c in colouring.items() if c == 0]
    right = [v for v, c in colouring.items() if c == 1]
    edges: list[MultiEdge] = []
    if graph.is_multigraph():
        for index, (u, v, key) in enumerate(graph.edges(keys=True)):
            edges.append(MultiEdge(u, v, (u, v, key, index)))
    else:
        for u, v in graph.edges():
            a, b = sorted((u, v), key=repr)
            edges.append(MultiEdge(u, v, (a, b)))
    return one_factorise_bipartite(left, right, edges)


def is_one_factor(
    factor: Sequence[MultiEdge],
    nodes: Iterable[Node],
) -> bool:
    """Check that *factor* is a perfect matching on *nodes*."""
    node_set = set(nodes)
    covered: set[Node] = set()
    for edge in factor:
        if edge.is_loop:
            return False
        if edge.u in covered or edge.v in covered:
            return False
        covered.add(edge.u)
        covered.add(edge.v)
    return covered == node_set
