"""Theorem 1: the lower-bound construction for even degree d.

The graph (paper §3.1, Figure 4):

* nodes ``A = {a_1 .. a_d}`` and ``B = {b_1 .. b_{d-1}}``;
* edges ``S = {{a_1,a_2}, {a_3,a_4}, ..., {a_{d-1},a_d}}`` (a matching)
  plus ``T = A × B`` (the complete bipartite graph ``K_{d,d-1}``).

The graph is d-regular; ``S`` is an optimal edge dominating set of size
``d/2`` because ``|E| = (2d-1)|S|`` and one edge dominates at most
``2d - 1`` edges.

Port numbering (§3.2): the graph is 2-factorised (Petersen) and factor
``i`` is oriented; port ``2i - 1`` of a node leads to its successor and
port ``2i`` to its predecessor.  Every edge of factor ``i`` then carries
label pair ``{2i-1, 2i}``, so the graph covers the one-node multigraph
``M`` with ``p(x, 2i-1) = (x, 2i)`` (§3.3): all nodes are forced to output
identical port sets.  A non-empty output therefore contains a whole
2-factor — ``|V| = 2d - 1`` edges — while the optimum is ``d/2``, forcing
ratio ``(2d-1)/(d/2) = 4 - 2/d`` (§3.4).
"""

from __future__ import annotations

from fractions import Fraction

from repro.exceptions import ConstructionError
from repro.lowerbounds.instance import LowerBoundInstance
from repro.portgraph.builder import PortGraphBuilder
from repro.portgraph.convert import from_networkx
from repro.portgraph.covering import quotient_by_partition
from repro.portgraph.numbering import factor_pairing_numbering
from repro.portgraph.graph import PortNumberedGraph

__all__ = ["build_even_lower_bound", "single_node_quotient"]


def single_node_quotient(d: int) -> PortNumberedGraph:
    """The one-node multigraph M of §3.3: ``p(x, 2i-1) = (x, 2i)``."""
    if d < 2 or d % 2:
        raise ConstructionError(f"quotient needs even d >= 2, got {d}")
    builder = PortGraphBuilder()
    builder.add_node("x", d)
    for i in range(1, d // 2 + 1):
        builder.connect("x", 2 * i - 1, "x", 2 * i)
    return builder.build()


def build_even_lower_bound(d: int) -> LowerBoundInstance:
    """Construct the Theorem 1 instance for an even degree ``d >= 2``.

    The returned instance is fully verified: d-regularity, optimality
    certificate for ``S``, and the covering map onto the one-node
    quotient.
    """
    import networkx as nx

    if d < 2 or d % 2:
        raise ConstructionError(
            f"Theorem 1 construction needs even d >= 2, got {d}"
        )

    a = [f"a{i}" for i in range(1, d + 1)]
    b = [f"b{j}" for j in range(1, d)]

    base = nx.Graph()
    base.add_nodes_from(a)
    base.add_nodes_from(b)
    s_pairs = [(a[2 * t], a[2 * t + 1]) for t in range(d // 2)]
    base.add_edges_from(s_pairs)
    base.add_edges_from((ai, bj) for ai in a for bj in b)

    graph = from_networkx(base, factor_pairing_numbering)

    edge_index = {e.endpoints: e for e in graph.edges}
    optimum = frozenset(
        edge_index[frozenset(pair)] for pair in s_pairs
    )

    # |E| = (2d - 1) |S| certifies optimality (each edge dominates at most
    # 2d - 1 edges in a d-regular graph).
    if graph.num_edges != (2 * d - 1) * len(optimum):
        raise ConstructionError(
            "optimality certificate failed: |E| != (2d-1)|S|"
        )

    quotient, covering_map = quotient_by_partition(
        graph, {v: "x" for v in graph.nodes}
    )
    if quotient != single_node_quotient(d):
        raise ConstructionError(
            "quotient does not match the single-node multigraph of §3.3"
        )

    instance = LowerBoundInstance(
        family="regular-even",
        d=d,
        graph=graph,
        optimum=optimum,
        quotient=quotient,
        covering_map=covering_map,
        forced_ratio=Fraction(4) - Fraction(2, d),
    )
    instance.verify()
    return instance
