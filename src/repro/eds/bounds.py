"""The tight approximation ratios of paper Table 1 and poly-time lower
bounds on the optimum used by the evaluation harness.

Table 1 (all ratios are tight — matching upper and lower bounds):

* d-regular graphs, odd  d:  4 - 6/(d+1)   (Theorems 2 and 4), O(d^2) time
* d-regular graphs, even d:  4 - 2/d       (Theorems 1 and 3), O(1) time
* max degree 1:              1             (trivial)
* max degree Δ >= 2:         4 - 1/k where k = floor(Δ/2)
                             (Corollary 1 and Theorem 5), O(Δ^2) time

The bounded-degree entry is written in the paper as 4 - 2/(Δ-1) for odd Δ
and 4 - 2/Δ for even Δ; both equal 4 - 1/k with k = floor(Δ/2).
"""

from __future__ import annotations

from fractions import Fraction

from repro.exceptions import AlgorithmContractError
from repro.portgraph.convert import to_simple_networkx
from repro.portgraph.graph import PortNumberedGraph

__all__ = [
    "regular_ratio",
    "bounded_degree_ratio",
    "maximum_matching_nodes",
    "maximum_matching_size",
    "eds_lower_bound",
    "eds_lower_bound_from_nu",
]


def regular_ratio(d: int) -> Fraction:
    """The tight ratio for d-regular graphs (Table 1 rows 1-2).

    ``4 - 6/(d+1)`` for odd d; ``4 - 2/d`` for even d.  For ``d = 1`` the
    formula gives 1, matching the trivial optimality of taking a perfect
    matching's every edge.
    """
    if d < 1:
        raise AlgorithmContractError(f"degree must be >= 1, got {d}")
    if d % 2 == 1:
        return Fraction(4) - Fraction(6, d + 1)
    return Fraction(4) - Fraction(2, d)


def bounded_degree_ratio(delta: int) -> Fraction:
    """The tight ratio for graphs of maximum degree Δ (Table 1 rows 3-5).

    1 for ``Δ = 1``; otherwise ``4 - 1/k`` with ``k = floor(Δ/2)``, i.e.
    ``4 - 2/(Δ-1)`` for odd Δ and ``4 - 2/Δ`` for even Δ.
    """
    if delta < 1:
        raise AlgorithmContractError(f"max degree must be >= 1, got {delta}")
    if delta == 1:
        return Fraction(1)
    k = delta // 2
    return Fraction(4) - Fraction(1, k)


def maximum_matching_nodes(
    graph: PortNumberedGraph,
) -> frozenset[frozenset]:
    """A maximum matching as endpoint pairs, memoised per compiled graph.

    The blossom run is the single most expensive derived quantity the
    harness computes (minutes at n = 16384), so its output lives in the
    compiled graph's derived-table memo alongside the flat adjacency
    lists: repeated measures, bound engines, and tests touching the same
    graph object run networkx at most once.
    """
    graph.require_simple()
    memo = graph.compiled().memo
    try:
        return memo["max_matching_nodes"]
    except KeyError:
        pass
    import networkx as nx

    nx_graph = to_simple_networkx(graph)
    matching = nx.max_weight_matching(nx_graph, maxcardinality=True)
    pairs = frozenset(frozenset(pair) for pair in matching)
    memo["max_matching_nodes"] = pairs
    return pairs


def maximum_matching_size(graph: PortNumberedGraph) -> int:
    """ν(G): the maximum matching size (blossom, memoised per graph)."""
    return len(maximum_matching_nodes(graph))


def eds_lower_bound_from_nu(
    nu_lower: int, num_edges: int, max_degree: int
) -> int:
    """The EDS lower bound given (a lower bound on) ν.

    Sound for any ``nu_lower <= ν``: both ingredients are monotone in ν,
    so feeding a certified primal matching size instead of the exact ν
    still yields a valid (just possibly weaker) bound on the optimum.
    """
    if num_edges == 0:
        return 0
    by_matching = -(-nu_lower // 2)  # ceil(nu_lower / 2)
    by_domination = -(-num_edges // (2 * max_degree - 1))
    return max(by_matching, by_domination)


def eds_lower_bound(graph: PortNumberedGraph) -> int:
    """A poly-time lower bound on the minimum EDS size.

    Two bounds are combined:

    * every maximal matching has size >= ν(G)/2 (each optimal-matching
      edge must be dominated, and a dominating edge touches at most two
      of them), and the minimum EDS is a maximal matching;
    * an edge dominates at most ``2Δ - 1`` edges, so any EDS has size
      >= m / (2Δ - 1).
    """
    graph.require_simple()
    if graph.num_edges == 0:
        return 0
    return eds_lower_bound_from_nu(
        maximum_matching_size(graph), graph.num_edges, graph.max_degree
    )
