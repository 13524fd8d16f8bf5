"""Bounded-degree graph families (the Theorem 5 workload domain)."""

from __future__ import annotations

import random

from repro.exceptions import ConstructionError
from repro.generators.direct import (
    from_edge_arrays,
    grid_edges,
    path_edges,
)
from repro.portgraph.convert import from_networkx
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.numbering import (
    NumberingStrategy,
    random_numbering,
    sequential_numbering,
)

__all__ = [
    "random_bounded_degree",
    "path",
    "grid",
    "random_tree",
    "star",
    "caterpillar",
]


def _convert(graph, strategy, seed):
    if strategy is None:
        strategy = (
            sequential_numbering if seed is None else random_numbering(seed)
        )
    return from_networkx(graph, strategy)


def random_bounded_degree(
    n: int,
    max_degree: int,
    *,
    edge_probability: float = 0.5,
    seed: int = 0,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """An Erdős–Rényi graph thinned to respect a maximum degree.

    Edges are removed (deterministically given *seed*) from over-full
    nodes until the degree bound holds; the result keeps the G(n, p)
    character while fitting the Theorem 5 contract.
    """
    if max_degree < 1:
        raise ConstructionError("max_degree must be >= 1")
    import networkx as nx
    graph = nx.gnp_random_graph(n, edge_probability, seed=seed)
    rng = random.Random(seed)
    while True:
        over = sorted(v for v, d in graph.degree() if d > max_degree)
        if not over:
            break
        v = over[0]
        neighbours = sorted(graph.neighbors(v))
        graph.remove_edge(v, rng.choice(neighbours))
    return _convert(graph, numbering, seed)


def path(
    n: int,
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """The path on n nodes (max degree 2)."""
    if n < 1:
        raise ConstructionError("path needs n >= 1")
    if numbering is None:
        return from_edge_arrays(n, *path_edges(n), seed)
    import networkx as nx
    return _convert(nx.path_graph(n), numbering, seed)


def grid(
    rows: int,
    cols: int,
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """The rows x cols grid (max degree 4) — e.g. a sensor-field layout."""
    if numbering is None:
        return from_edge_arrays(
            max(rows, 0) * max(cols, 0), *grid_edges(rows, cols), seed
        )
    import networkx as nx
    graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols))
    return _convert(graph, numbering, seed)


def random_tree(
    n: int,
    *,
    seed: int = 0,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """A uniformly random labelled tree on n nodes."""
    if n < 1:
        raise ConstructionError("tree needs n >= 1")
    import networkx as nx
    if n == 1:
        return _convert(nx.empty_graph(1), numbering, seed)
    graph = nx.random_labeled_tree(n, seed=seed)
    return _convert(graph, numbering, seed)


def star(
    leaves: int,
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """The star with the given number of leaves (max degree = leaves)."""
    if leaves < 1:
        raise ConstructionError("star needs at least one leaf")
    import networkx as nx
    return _convert(nx.star_graph(leaves), numbering, seed)


def caterpillar(
    spine: int,
    legs_per_node: int,
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """A caterpillar tree: a spine path with pendant legs."""
    if spine < 1 or legs_per_node < 0:
        raise ConstructionError("need spine >= 1 and legs >= 0")
    import networkx as nx
    graph = nx.path_graph(spine)
    next_node = spine
    for v in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(v, next_node)
            next_node += 1
    return _convert(graph, numbering, seed)
