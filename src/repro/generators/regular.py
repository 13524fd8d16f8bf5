"""Regular graph families used as workloads by the evaluation harness."""

from __future__ import annotations

import networkx as nx

from repro.exceptions import ConstructionError
from repro.generators.direct import (
    complete_bipartite_neighbours,
    complete_neighbours,
    cycle_neighbours,
    from_neighbour_lists,
    hypercube_neighbours,
    torus_neighbours,
)
from repro.portgraph.convert import from_networkx
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.numbering import (
    NumberingStrategy,
    random_numbering,
    sequential_numbering,
)

__all__ = [
    "random_regular",
    "cycle",
    "complete",
    "complete_bipartite",
    "circulant",
    "hypercube",
    "torus",
    "petersen",
]


def _convert(
    graph: nx.Graph,
    strategy: NumberingStrategy | None,
    seed: int | None,
) -> PortNumberedGraph:
    if strategy is None:
        strategy = (
            sequential_numbering if seed is None else random_numbering(seed)
        )
    return from_networkx(graph, strategy)


def random_regular(
    d: int,
    n: int,
    *,
    seed: int = 0,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """A uniformly random simple d-regular graph on n nodes."""
    if n * d % 2 or n <= d:
        raise ConstructionError(
            f"no d-regular graph with d={d}, n={n} (need n > d, n*d even)"
        )
    graph = nx.random_regular_graph(d, n, seed=seed)
    if numbering is None:
        # networkx only draws the edges; the ports go straight to CSR.
        return from_neighbour_lists([graph.adj[v] for v in range(n)], seed)
    return _convert(graph, numbering, seed)


def cycle(
    n: int,
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """The n-cycle (2-regular)."""
    if n < 3:
        raise ConstructionError(f"cycle needs n >= 3, got {n}")
    if numbering is None:
        return from_neighbour_lists(cycle_neighbours(n), seed)
    return _convert(nx.cycle_graph(n), numbering, seed)


def complete(
    n: int,
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """The complete graph K_n ((n-1)-regular)."""
    if n < 2:
        raise ConstructionError(f"complete graph needs n >= 2, got {n}")
    if numbering is None:
        return from_neighbour_lists(complete_neighbours(n), seed)
    return _convert(nx.complete_graph(n), numbering, seed)


def complete_bipartite(
    a: int,
    b: int,
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """K_{a,b} (regular when a == b)."""
    if a < 1 or b < 1:
        raise ConstructionError("both sides need at least one node")
    if numbering is None:
        return from_neighbour_lists(
            complete_bipartite_neighbours(a, b), seed
        )
    return _convert(nx.complete_bipartite_graph(a, b), numbering, seed)


def circulant(
    n: int,
    offsets: tuple[int, ...],
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """The circulant graph C_n(offsets); regular by construction."""
    graph = nx.circulant_graph(n, list(offsets))
    return _convert(graph, numbering, seed)


def hypercube(
    dim: int,
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """The dim-dimensional hypercube (dim-regular, 2^dim nodes)."""
    if dim < 1:
        raise ConstructionError(f"hypercube needs dim >= 1, got {dim}")
    if numbering is None:
        return from_neighbour_lists(hypercube_neighbours(dim), seed)
    graph = nx.convert_node_labels_to_integers(nx.hypercube_graph(dim))
    return _convert(graph, numbering, seed)


def torus(
    rows: int,
    cols: int,
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """The rows x cols torus grid (4-regular when both sides >= 3)."""
    if rows < 3 or cols < 3:
        raise ConstructionError("torus needs both sides >= 3")
    if numbering is None:
        return from_neighbour_lists(torus_neighbours(rows, cols), seed)
    graph = nx.convert_node_labels_to_integers(
        nx.grid_2d_graph(rows, cols, periodic=True)
    )
    return _convert(graph, numbering, seed)


def petersen(
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """The Petersen graph (3-regular, 10 nodes)."""
    return _convert(nx.petersen_graph(), numbering, seed)
