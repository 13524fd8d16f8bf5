"""Direct-to-CSR lowering: an edge list straight into compiled arrays.

The networkx route (``nx.Graph`` → numbering strategy → neighbour-order
dicts → ``PortNumberedGraph(degrees, involution)``, which validates the
dicts and walks them into arrays) costs several dict passes per port.
When a generator already holds its edges as two int64 arrays — the
structured families (cycles, grids, tori, hypercubes, complete and
complete-bipartite graphs, paths), whose edges are arithmetic, and the
array replay of networkx's regular sampler in
:mod:`repro.generators.regular` — :func:`from_edge_arrays` numbers the
ports with numpy sorts and hands the CSR arrays to
:meth:`~repro.portgraph.graph.PortNumberedGraph.from_arrays`; no
``(d, p)`` dict exists unless equality or hashing asks for one.

Byte-identity contract (pinned by ``tests/test_direct_csr.py``): for
every family and every seed the direct build equals the networkx build
*exactly* — same node tuple, same degree function, same involution,
same canonical edge order, same compiled arrays.  That requires
replicating two conventions of the dict path:

* node order is ``sorted(nodes, key=repr)`` — for integer labels this
  is the *decimal-string* order (``0, 1, 10, 100, 11, …``), not numeric;
* each node's neighbours are sorted by ``repr`` and, when a seed is
  given, shuffled by one shared ``random.Random(seed)`` visiting nodes
  in that same repr order (see
  :func:`repro.portgraph.numbering.random_numbering`).

Those n numbering shuffles are replayed in one batch on one word stream
by :func:`repro.generators.shuffle.shuffled_segments`, which keeps the
stdlib loop only for degree profiles past its table limit (dense
graphs such as ``complete(50)``).
"""

from __future__ import annotations

import random
from array import array

import numpy as np

from repro.generators.shuffle import shuffled_segments
from repro.portgraph.graph import PortNumberedGraph

__all__ = [
    "from_edge_arrays",
    "cycle_edges",
    "complete_edges",
    "complete_bipartite_edges",
    "path_edges",
    "grid_edges",
    "torus_edges",
    "hypercube_edges",
]

Edges = tuple[np.ndarray, np.ndarray]


def _q(values: np.ndarray) -> array:
    out = array("q")
    # One copy: frombytes reads the int64 buffer through a memoryview.
    out.frombytes(
        memoryview(np.ascontiguousarray(values, dtype=np.int64)).cast("B")
    )
    return out


def _repr_order(n: int) -> np.ndarray:
    """``sorted(range(n), key=repr)`` as an int64 array.

    Decimal strings compare like their digits right-padded with zeros
    to a common width, a shorter string first on a tie (it is then a
    prefix of the longer one).
    """
    labels = np.arange(n, dtype=np.int64)
    lengths = np.ones(n, dtype=np.int64)
    power = 10
    while power < n:
        lengths += labels >= power
        power *= 10
    width = int(lengths.max()) if n else 0
    padded = labels * 10 ** (width - lengths)
    return np.lexsort((lengths, padded))


def from_edge_arrays(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    seed: int | None = None,
) -> PortNumberedGraph:
    """Build the port-numbered graph of a simple graph on ``0..n-1``.

    Edge ``e`` joins ``u[e]`` and ``v[e]``; edge order and orientation
    are irrelevant — ports are assigned by the numbering conventions
    above, exactly as the networkx path would.  The edges must be
    distinct and loop-free.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = len(u)
    total = 2 * m
    order = _repr_order(n)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    # Port e is (u[e] → v[e]) and port m + e its reverse.
    owner = rank[np.concatenate((u, v))]
    peer = rank[np.concatenate((v, u))]
    # Ports in node-rank order, each node's in neighbour-rank order.
    perm = np.argsort(owner * n + peer)
    degrees = np.bincount(owner, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])

    if seed is not None and total:
        # The numbering coins: one shuffle per node, in rank order, on
        # an index list of the node's degree — the same MT19937 draws
        # as shuffling its repr-sorted neighbour list.
        perm = perm[shuffled_segments(random.Random(seed), degrees)]

    position = np.empty(total, dtype=np.int64)
    position[perm] = np.arange(total, dtype=np.int64)
    mate = position[np.where(perm < m, perm + m, perm - m)]
    port_node = np.repeat(np.arange(n, dtype=np.int64), degrees)
    return PortNumberedGraph.from_arrays(
        tuple(order.tolist()),
        tuple(degrees.tolist()),
        _q(offsets),
        _q(mate),
        _q(port_node),
        validate=False,
    )


# ---------------------------------------------------------------------------
# Edge arithmetic per family (labels match the networkx builders)
# ---------------------------------------------------------------------------


def cycle_edges(n: int) -> Edges:
    """``nx.cycle_graph(n)`` for n >= 3."""
    u = np.arange(n, dtype=np.int64)
    return u, (u + 1) % n


def complete_edges(n: int) -> Edges:
    """``nx.complete_graph(n)``."""
    u, v = np.triu_indices(n, 1)
    return u.astype(np.int64), v.astype(np.int64)


def complete_bipartite_edges(a: int, b: int) -> Edges:
    """``nx.complete_bipartite_graph(a, b)``: sides 0..a-1 and a..a+b-1."""
    u = np.repeat(np.arange(a, dtype=np.int64), b)
    v = np.tile(np.arange(a, a + b, dtype=np.int64), a)
    return u, v


def path_edges(n: int) -> Edges:
    """``nx.path_graph(n)`` for n >= 1."""
    u = np.arange(n - 1, dtype=np.int64)
    return u, u + 1


def grid_edges(rows: int, cols: int) -> Edges:
    """``convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols))``.

    Node ``(i, j)`` is visited in row-major order by networkx, so its
    integer label is ``i * cols + j``.
    """
    label = np.arange(
        max(rows, 0) * max(cols, 0), dtype=np.int64
    ).reshape(max(rows, 0), max(cols, 0))
    across = (label[:, :-1].ravel(), label[:, 1:].ravel())
    down = (label[:-1, :].ravel(), label[1:, :].ravel())
    return (
        np.concatenate((across[0], down[0])),
        np.concatenate((across[1], down[1])),
    )


def torus_edges(rows: int, cols: int) -> Edges:
    """The periodic grid, both sides >= 3 (no duplicate wrap edges)."""
    label = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    across = np.roll(label, -1, axis=1)
    down = np.roll(label, -1, axis=0)
    return (
        np.concatenate((label.ravel(), label.ravel())),
        np.concatenate((across.ravel(), down.ravel())),
    )


def hypercube_edges(dim: int) -> Edges:
    """``convert_node_labels_to_integers(nx.hypercube_graph(dim))``.

    networkx labels are binary tuples in lexicographic order, so the
    integer relabelling reads each tuple as a binary number with the
    first coordinate as the most significant bit; flipping any bit
    yields a neighbour.
    """
    labels = np.arange(1 << dim, dtype=np.int64)
    low = [labels[(labels >> b) & 1 == 0] for b in range(dim)]
    return (
        np.concatenate(low),
        np.concatenate([w | (1 << b) for b, w in enumerate(low)]),
    )
