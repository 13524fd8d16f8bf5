"""Special graphs appearing in the paper's constructions and figures."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import ConstructionError
from repro.portgraph.convert import from_networkx
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.numbering import (
    NumberingStrategy,
    random_numbering,
    sequential_numbering,
)

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["crown", "crown_nx", "matching_union", "component_h_nx"]


def crown_nx(k: int) -> nx.Graph:
    """The crown graph S_k^0: K_{k,k} minus a perfect matching.

    This is the shape of the edge set T(ℓ) in the Theorem 2 construction
    (paper §4.1): ``{a_i, b_j}`` for all ``i != j``.
    """
    import networkx as nx

    if k < 2:
        raise ConstructionError(f"crown graph needs k >= 2, got {k}")
    graph = nx.Graph()
    graph.add_nodes_from(f"a{i}" for i in range(k))
    graph.add_nodes_from(f"b{i}" for i in range(k))
    graph.add_edges_from(
        (f"a{i}", f"b{j}") for i in range(k) for j in range(k) if i != j
    )
    return graph


def crown(
    k: int,
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """Port-numbered crown graph ((k-1)-regular on 2k nodes)."""
    strategy = numbering or (
        sequential_numbering if seed is None else random_numbering(seed)
    )
    return from_networkx(crown_nx(k), strategy)


def matching_union(
    pairs: int,
    *,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """A perfect matching on 2 * pairs nodes (1-regular)."""
    import networkx as nx

    if pairs < 1:
        raise ConstructionError("need at least one pair")
    graph = nx.Graph((2 * t, 2 * t + 1) for t in range(pairs))
    return from_networkx(graph, numbering or sequential_numbering)


def component_h_nx(k: int, label: int = 1) -> nx.Graph:
    """The 2k-regular component H(ℓ) of the Theorem 2 construction.

    Star R(ℓ) + matching S(ℓ) + crown T(ℓ) on ``4k + 1`` nodes
    (paper §4.1, Figure 5).  Exposed for the figure reproductions.
    """
    import networkx as nx

    if k < 1:
        raise ConstructionError(f"component H needs k >= 1, got {k}")
    a = [f"a{label}_{i}" for i in range(1, 2 * k + 1)]
    b = [f"b{label}_{i}" for i in range(1, 2 * k + 1)]
    c = f"c{label}"
    graph = nx.Graph()
    graph.add_nodes_from(a + b + [c])
    graph.add_edges_from((c, bi) for bi in b)
    graph.add_edges_from((a[2 * t], a[2 * t + 1]) for t in range(k))
    graph.add_edges_from(
        (a[i], b[j])
        for i in range(2 * k)
        for j in range(2 * k)
        if i != j
    )
    return graph
