"""Exact minimum edge dominating sets.

Paper §1.1-1.2: a minimum maximal matching is a minimum edge dominating
set (and minimum EDS size equals minimum maximal matching size), so the
exact EDS solver delegates to the branch-and-bound minimum maximal
matching of :mod:`repro.matching.exact`.  A subset-enumeration brute
force is provided as an independent cross-check for tiny instances.
"""

from __future__ import annotations

from repro.eds.properties import is_edge_dominating_set
from repro.matching.exact import minimum_maximal_matching
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import PortEdge

__all__ = [
    "minimum_edge_dominating_set",
    "minimum_eds_size",
    "brute_force_minimum_eds_size",
]


def minimum_edge_dominating_set(
    graph: PortNumberedGraph,
) -> frozenset[PortEdge]:
    """An optimal edge dominating set (always a minimum maximal matching).

    Exponential-time exact solver; intended for the small instances used
    to validate the approximation guarantees.
    """
    return minimum_maximal_matching(graph)


def minimum_eds_size(graph: PortNumberedGraph) -> int:
    """The size of a minimum edge dominating set, memoised per graph.

    Like the blossom matching (:func:`repro.eds.bounds.
    maximum_matching_nodes`), the exponential search runs once per
    compiled graph, so every algorithm measured on one graph shares it.
    """
    memo = graph.compiled().memo
    try:
        return memo["minimum_eds_size"]
    except KeyError:
        pass
    size = len(minimum_edge_dominating_set(graph))
    memo["minimum_eds_size"] = size
    return size


def brute_force_minimum_eds_size(graph: PortNumberedGraph) -> int:
    """Minimum EDS size by enumerating all edge subsets (<= 20 edges).

    Unlike the main solver this searches over *arbitrary* edge sets, not
    just matchings, so agreement between the two is a meaningful test of
    the Yannakakis-Gavril equivalence.
    """
    graph.require_simple()
    edges = list(graph.edges)
    if len(edges) > 20:
        raise RuntimeError("brute force limited to 20 edges")
    if not edges:
        return 0
    for size in range(0, len(edges) + 1):
        if _exists_eds_of_size(graph, edges, size):
            return size
    raise AssertionError("the full edge set always dominates")


def _exists_eds_of_size(graph, edges, size) -> bool:
    from itertools import combinations

    for subset in combinations(edges, size):
        if is_edge_dominating_set(graph, subset):
            return True
    return False
