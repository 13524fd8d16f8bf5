"""Node outputs as a port mask, and the edge set they select (paper §2.2).

A node ``v`` announces a subset ``X(v)`` of its ports; the selected edge
set is ``D = {edge at (v, i) : i in X(v)}``.  The paper requires internal
consistency: if ``i ∈ X(v)`` and ``p(v, i) = (u, j)`` then ``j ∈ X(u)``.

Over the compiled arrays (:meth:`PortNumberedGraph.compiled`) the
announcements of all nodes are one boolean mask ``selected[g]`` over
global ports, and consistency is ``selected == selected[mate]``.  Every
engine returns that mask (:attr:`RunResult.selected
<repro.runtime.scheduler.RunResult.selected>`); this module holds the one
§2.2 check over it (:func:`check_selection`), the packing of per-node
port sets into it (:func:`pack_outputs`) and back
(:func:`unpack_outputs`), and :class:`EdgeSelection`, the checked mask
seen as the edge set it selects.
"""

from __future__ import annotations

from collections.abc import Set
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import InconsistentOutputError
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node, PortEdge

__all__ = [
    "EdgeSelection",
    "check_consistency",
    "check_selection",
    "decode_edge_set",
    "edge_set_to_outputs",
    "pack_outputs",
    "unpack_outputs",
]


def _view(table) -> np.ndarray:
    """A compiled ``array('q')`` table as a zero-copy int64 array."""
    return np.frombuffer(table, dtype=np.int64)


def _lead_ports(cg) -> np.ndarray:
    """Bool mask with one port per edge: ``g <= mate[g]``."""
    mate = _view(cg.mate)
    return mate >= np.arange(len(mate), dtype=np.int64)


def pack_outputs(cg, outputs: Sequence[frozenset[int]]) -> np.ndarray:
    """Per-node port sets, in node-index order, as the selected-port mask.

    Raises :class:`InconsistentOutputError` on a missing output
    (``None``) or a port outside ``1..deg(v)``.
    """
    selected = bytearray(cg.num_ports)
    offsets = cg.offsets
    degrees = cg.degrees
    for k, ports in enumerate(outputs):
        if ports is None:
            raise InconsistentOutputError(
                f"node {cg.nodes[k]!r} halted without output"
            )
        if not ports:
            continue
        base = offsets[k] - 1
        degree = degrees[k]
        for i in ports:
            if not 1 <= i <= degree:
                raise InconsistentOutputError(
                    f"node {cg.nodes[k]!r} output invalid port {i}"
                )
            selected[base + i] = 1
    return np.frombuffer(selected, dtype=np.bool_)


def unpack_outputs(cg, selected: np.ndarray) -> dict[Node, frozenset[int]]:
    """The mask back to the ``Node → X(v)`` mapping."""
    ports = np.flatnonzero(selected)
    owners = _view(cg.port_node)[ports]
    locs = (ports - _view(cg.offsets)[owners] + 1).tolist()
    bounds = np.searchsorted(
        owners, np.arange(cg.num_nodes + 1, dtype=np.int64)
    ).tolist()
    return {
        v: frozenset(locs[bounds[k]:bounds[k + 1]])
        for k, v in enumerate(cg.nodes)
    }


def check_selection(cg, selected: np.ndarray) -> None:
    """Raise :class:`InconsistentOutputError` on a one-sided selection.

    The message names the first offending port in node order.
    """
    mate = _view(cg.mate)
    one_sided = selected & ~selected[mate]
    if one_sided.any():
        g = int(np.argmax(one_sided))
        v, i = cg.port(g)
        u, j = cg.port(int(mate[g]))
        raise InconsistentOutputError(
            f"inconsistent output: {i} ∈ X({v!r}) and "
            f"p({v!r}, {i}) = ({u!r}, {j}) but {j} ∉ X({u!r})"
        )


def _checked_mask(
    graph: PortNumberedGraph, outputs: Mapping[Node, frozenset[int]]
) -> np.ndarray:
    missing = [v for v in graph.nodes if v not in outputs]
    if missing:
        raise InconsistentOutputError(
            f"nodes without output: {missing[:5]!r}"
        )
    cg = graph.compiled()
    selected = pack_outputs(cg, [outputs[v] for v in cg.nodes])
    check_selection(cg, selected)
    return selected


def check_consistency(
    graph: PortNumberedGraph,
    outputs: Mapping[Node, frozenset[int]],
) -> None:
    """Raise :class:`InconsistentOutputError` on any §2.2 violation."""
    _checked_mask(graph, outputs)


def decode_edge_set(
    graph: PortNumberedGraph,
    outputs: Mapping[Node, frozenset[int]],
) -> frozenset[PortEdge]:
    """Convert per-node port sets into the selected edge set.

    Consistency is checked first; the result contains each selected edge
    exactly once.
    """
    return EdgeSelection(graph, _checked_mask(graph, outputs)).edges()


def edge_set_to_outputs(
    graph: PortNumberedGraph,
    edges: frozenset[PortEdge] | set[PortEdge],
) -> dict[Node, frozenset[int]]:
    """Inverse of :func:`decode_edge_set`: the port sets selecting *edges*."""
    ports = graph.induced_subgraph_ports(edges)
    return {v: frozenset(ports[v]) for v in graph.nodes}


class EdgeSelection(Set):
    """A §2.2-consistent port mask, seen as the edge set it selects.

    Equal to, and hashing like, the ``frozenset[PortEdge]`` of its
    edges.  ``len()`` and :meth:`covered_nodes` (what
    :func:`~repro.eds.properties.is_edge_dominating_set` reads) are array
    operations on the mask; the :class:`PortEdge` objects are built once,
    on first iteration or membership test.

    *selected* must already have passed :func:`check_selection`.
    """

    __slots__ = ("graph", "selected", "_size", "_edges")

    def __init__(self, graph: PortNumberedGraph, selected: np.ndarray):
        self.graph = graph
        self.selected = selected
        self._size: int | None = None
        self._edges: frozenset[PortEdge] | None = None

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __len__(self) -> int:
        if self._size is None:
            lead = _lead_ports(self.graph.compiled())
            self._size = int(np.count_nonzero(self.selected & lead))
        return self._size

    def edges(self) -> frozenset[PortEdge]:
        """The selected edges as a plain frozenset (decoded once)."""
        if self._edges is None:
            cg = self.graph.compiled()
            ports = np.flatnonzero(self.selected & _lead_ports(cg))
            owners = _view(cg.port_node)[ports]
            locs = ports - _view(cg.offsets)[owners] + 1
            nodes = cg.nodes
            edge_at = self.graph.edge_at
            self._edges = frozenset(
                edge_at(nodes[k], i)
                for k, i in zip(owners.tolist(), locs.tolist())
            )
        return self._edges

    def covered_nodes(self) -> np.ndarray:
        """Bool mask over node indices: the endpoints of selected edges."""
        cg = self.graph.compiled()
        covered = np.zeros(cg.num_nodes, dtype=bool)
        covered[_view(cg.port_node)[self.selected]] = True
        return covered

    def __iter__(self):
        return iter(self.edges())

    def __contains__(self, edge: object) -> bool:
        return edge in self.edges()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Set):
            return len(self) == len(other) and self.edges() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.edges())

    def __repr__(self) -> str:
        return f"EdgeSelection({len(self)} of {self.graph.num_edges} edges)"
