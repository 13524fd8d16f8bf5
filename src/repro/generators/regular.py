"""Regular graph families used as workloads by the evaluation harness.

Without an explicit ``numbering=`` every family here except
``circulant`` and ``petersen`` lowers its edges straight to CSR arrays
(:func:`repro.generators.direct.from_edge_arrays`).
``random_regular`` draws those edges with an array replay of
networkx's ``random_regular_graph`` sampler (:func:`_regular_edges`):
the same ``random.Random(seed)``, the same shuffles of the same stubs,
the same restarts, so the edge set — and with it every record and cache
entry — is the one networkx draws.  Every round's shuffle, restarts
included, comes from one :class:`~repro.generators.shuffle.ShuffleStream`
over that generator, so the route runs no per-element Python.  The
``numbering=`` route still calls networkx and is the replay's oracle in
the tests.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConstructionError
from repro.generators.direct import (
    complete_bipartite_edges,
    complete_edges,
    cycle_edges,
    from_edge_arrays,
    hypercube_edges,
    torus_edges,
)
from repro.generators.shuffle import ShuffleStream
from repro.portgraph.convert import from_networkx
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.numbering import (
    NumberingStrategy,
    random_numbering,
    sequential_numbering,
)

if TYPE_CHECKING:
    import networkx as nx

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


# ---------------------------------------------------------------------------
# networkx's Steger–Wormald sampler, replayed in arrays
# ---------------------------------------------------------------------------


class _EdgeKeys:
    """Membership of ``(s1, s2)`` (``s1 < s2``) in sorted edge keys
    ``s1 * n + s2``."""

    __slots__ = ("keys", "n")

    def __init__(self, keys: np.ndarray, n: int) -> None:
        self.keys = keys
        self.n = n

    def __contains__(self, pair: tuple[int, int]) -> bool:
        key = pair[0] * self.n + pair[1]
        at = int(np.searchsorted(self.keys, key))
        return at < len(self.keys) and int(self.keys[at]) == key


def _suitable(edges, potential_edges):
    # networkx's helper, verbatim: the inner loop rebinds the outer
    # ``s1`` on a swap, which decides some restarts on small dense
    # graphs, so a plain "any non-edge pair" test draws other graphs.
    if not potential_edges:
        return True
    for s1 in potential_edges:
        for s2 in potential_edges:
            # Two iterators on the same dictionary are guaranteed
            # to visit it in the same order if there are no
            # intervening modifications.
            if s1 == s2:
                # Only need to consider s1-s2 pair one time
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _first_appearances(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, counts)``: for each distinct value of *values*, in
    ascending order, the index of its first appearance and the number
    of its appearances."""
    if not len(values):
        return values, values
    order = np.argsort(values)
    ordered = values[order]
    head = np.ones(len(ordered), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(head)
    # The sort is not stable: each run's least index is its first.
    first = np.minimum.reduceat(order, starts)
    return first, np.diff(np.append(starts, len(values)))


def _try_creation(d: int, n: int, stream: ShuffleStream) -> np.ndarray | None:
    """One attempt: sorted edge keys ``lo * n + hi``, or ``None``."""
    keys = np.zeros(0, dtype=np.int64)
    stubs = np.tile(np.arange(n, dtype=np.int64), d)
    while len(stubs):
        stubs = stubs[stream.order(len(stubs))]
        lo = np.minimum(stubs[0::2], stubs[1::2])
        hi = np.maximum(stubs[0::2], stubs[1::2])
        key = lo * n + hi
        # A pair becomes an edge on its first appearance in the round
        # unless it is a loop or an edge of an earlier round.
        fresh, _ = _first_appearances(key)
        fresh = fresh[lo[fresh] != hi[fresh]]
        if len(keys):
            at = np.minimum(np.searchsorted(keys, key[fresh]), len(keys) - 1)
            fresh = fresh[keys[at] != key[fresh]]
        rejected = np.ones(len(key), dtype=bool)
        rejected[fresh] = False
        new = np.sort(key[fresh])
        keys = np.insert(keys, np.searchsorted(keys, new), new)
        # ``potential_edges``: each endpoint of a rejected pair, counted
        # in order of first appearance (low end before high end).
        ends = np.column_stack((lo[rejected], hi[rejected])).ravel()
        first, counts = _first_appearances(ends)
        by_first = np.argsort(first)
        potential = ends[first[by_first]]
        if not _suitable(_EdgeKeys(keys, n), potential.tolist()):
            return None
        stubs = np.repeat(potential, counts[by_first])
    return keys


def _regular_edges(
    d: int, n: int, stream: ShuffleStream
) -> tuple[np.ndarray, np.ndarray]:
    """The edges ``nx.random_regular_graph(d, n, seed)`` draws, as two
    int64 arrays, given a stream over that seed's generator.

    Each round shuffles the remaining stubs and pairs them off; pairs
    that would repeat an edge or form a loop return their stubs for the
    next round, and an attempt whose leftovers cannot all be placed
    starts over on the same random stream.
    """
    keys = _try_creation(d, n, stream)
    while keys is None:
        keys = _try_creation(d, n, stream)
    return keys // n, keys % n


def random_regular(
    d: int,
    n: int,
    *,
    seed: int | None = 0,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """A random simple d-regular graph on n nodes.

    The edges are ``nx.random_regular_graph(d, n, seed=seed)``'s
    (Steger–Wormald pairing, asymptotically uniform for small d);
    ``seed=None`` draws them from the module-level ``random`` instance,
    as networkx does.
    """
    if d < 0 or n * d % 2 or n <= d:
        raise ConstructionError(
            f"no d-regular graph with d={d}, n={n} "
            "(need 0 <= d < n, n*d even)"
        )
    if numbering is None:
        # seed=None: the module-level generator, an exact random.Random.
        rng = random.shuffle.__self__ if seed is None else random.Random(seed)
        with ShuffleStream(rng) as stream:
            u, v = _regular_edges(d, n, stream)
        return from_edge_arrays(n, u, v, seed)
    import networkx as nx
    return _convert(nx.random_regular_graph(d, n, seed=seed), numbering, seed)


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
        return from_edge_arrays(n, *cycle_edges(n), seed)
    import networkx as nx
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
        return from_edge_arrays(n, *complete_edges(n), seed)
    import networkx as nx
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
        return from_edge_arrays(
            a + b, *complete_bipartite_edges(a, b), seed
        )
    import networkx as nx
    return _convert(nx.complete_bipartite_graph(a, b), numbering, seed)


def circulant(
    n: int,
    offsets: tuple[int, ...],
    *,
    seed: int | None = None,
    numbering: NumberingStrategy | None = None,
) -> PortNumberedGraph:
    """The circulant graph C_n(offsets); regular by construction."""
    import networkx as nx
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
        return from_edge_arrays(1 << dim, *hypercube_edges(dim), seed)
    import networkx as nx
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
        return from_edge_arrays(
            rows * cols, *torus_edges(rows, cols), seed
        )
    import networkx as nx
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
    import networkx as nx
    return _convert(nx.petersen_graph(), numbering, seed)
