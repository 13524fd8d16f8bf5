"""The numpy struct-of-arrays view of a compiled port graph.

:class:`~repro.portgraph.compiled.CompiledGraph` lowers a port-numbered
graph into flat ``array('q')`` tables sized for CPython loops; the
vector engine (:mod:`repro.runtime.vector`) wants the same tables as
``np.int64`` arrays so one round of the simulation becomes a handful of
whole-graph array operations — messages gathered through the involution
with a single fancy-index, per-node state reduced over CSR segments
with ``reduceat``.  :class:`VectorGraph` is that view: derived once per
compiled graph and memoised on it (``CompiledGraph.vector``), so
repeated runs share it exactly like the vector kernels share their
schedules, which they keep in the compiled graph's ``memo``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.portgraph.compiled import CompiledGraph

__all__ = ["VectorGraph"]


#: Sentinel for "no value" in int64 segment reductions.
_INT64_MAX = (1 << 63) - 1


class VectorGraph:
    """``np.int64`` tables of one compiled graph, indexed by global port.

    Attributes
    ----------
    offsets / degrees / mate / port_node:
        The compiled tables as numpy arrays (``offsets`` has length
        ``n + 1``; the rest are per-port / per-node).
    local:
        1-based local port number of every global port.
    peer_node / peer_local:
        Owning node index / local port number at the far end of every
        global port (one ``mate`` gather, precomputed).
    all_ports:
        ``np.arange(num_ports)`` — the identity send list of a total
        broadcast round.
    memo:
        The compiled graph's ``memo`` dict, where kernels keep their
        derived schedules.
    """

    __slots__ = (
        "memo",
        "num_nodes",
        "num_ports",
        "offsets",
        "degrees",
        "mate",
        "port_node",
        "local",
        "peer_node",
        "peer_local",
        "all_ports",
        "_nonempty",
        "_starts",
    )

    def __init__(self, cg: "CompiledGraph") -> None:
        # The compiled graph's memo, not the compiled graph: kernels
        # memoise their schedules there, and a back-reference would
        # make a cycle (the compiled graph holds this view).
        self.memo = cg.memo
        n = cg.num_nodes
        total = cg.num_ports
        self.num_nodes = n
        self.num_ports = total
        # array('q') exposes the buffer protocol: these are zero-copy
        # read-only-by-convention views of the compiled tables.
        self.offsets = np.frombuffer(cg.offsets, dtype=np.int64)
        self.mate = np.frombuffer(cg.mate, dtype=np.int64)
        self.port_node = np.frombuffer(cg.port_node, dtype=np.int64)
        self.degrees = np.diff(self.offsets)
        self.all_ports = np.arange(total, dtype=np.int64)
        self.local = self.all_ports - self.offsets[self.port_node] + 1
        self.peer_node = self.port_node[self.mate]
        self.peer_local = self.local[self.mate]
        # reduceat segment starts of the non-empty nodes only: they are
        # strictly increasing, so each segment ends exactly where the
        # next non-empty node's ports begin.
        self._nonempty = self.degrees > 0
        self._starts = self.offsets[:-1][self._nonempty]

    def segment_min(self, values, empty: int = _INT64_MAX):
        """Per-node minimum of a per-port int64 array.

        ``values[offsets[k]:offsets[k+1]].min()`` for every node, with
        *empty* filled in for degree-0 nodes (``reduceat`` has no empty
        -segment semantics, so only non-empty segments are reduced).
        """
        if len(self._starts) == self.num_nodes:
            return np.minimum.reduceat(values, self._starts)
        out = np.full(self.num_nodes, empty, dtype=np.int64)
        if self.num_ports:
            out[self._nonempty] = np.minimum.reduceat(values, self._starts)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorGraph(n={self.num_nodes}, ports={self.num_ports})"
