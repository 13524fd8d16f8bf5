"""Array-backed port-numbered graphs: the direct-to-CSR construction path.

:class:`ArrayGraph` is a :class:`~repro.portgraph.graph.PortNumberedGraph`
built *from* the compiled CSR arrays instead of lowering *to* them: a
generator that already knows the flat layout (the structured families
and the ``regular`` family, lowered by :mod:`repro.generators.direct`;
the pairing-model ``pairing_regular``) hands over ``offsets``/``mate``/``port_node`` and skips both the
``dict[Port, Port]`` involution walk and ``CompiledGraph.__init__``.

The dict views of the base class (``_degrees``, ``_p``, the edge tuple)
still exist — they materialise lazily on first touch via ``__getattr__``
(an unset ``__slots__`` descriptor raises ``AttributeError``, which is
exactly the hook).  Code that only needs the hot accessors — ``degree``,
``connection``, ``edge_at``, ``edges`` counts, regularity — is served
straight from the arrays, so a million-node graph never pays for the
per-port tuple dictionaries unless something genuinely asks for them.

Node order is the *builder's* construction order (``nodes`` as passed),
not the base class's repr-sort: the edge-array lowering passes
repr-sorted nodes so it stays byte-identical to the networkx path, while
``pairing_regular`` uses numeric order because its port numbering is the
stub layout itself.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import InvolutionError, PortNumberingError
from repro.portgraph.compiled import CompiledGraph
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node, Port, PortEdge

__all__ = ["ArrayGraph"]


def _as_q(values) -> array:
    """Coerce to the ``array('q')`` form the compiled contract requires."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    return array("q", values)


class ArrayGraph(PortNumberedGraph):
    """A port-numbered graph whose source of truth is its CSR arrays.

    Parameters
    ----------
    nodes:
        The nodes in construction order; node *index* below means
        position in this sequence.
    degrees:
        ``degrees[k]`` — degree of node ``k``.
    offsets, mate, port_node:
        The compiled layout (see :class:`~repro.portgraph.compiled.
        CompiledGraph`); anything convertible to ``array('q')``.
    validate:
        Check structural validity (CSR consistency, involution).  On by
        default; builders that construct provably valid arrays pass
        ``False``.
    """

    __slots__ = ()

    def __init__(
        self,
        nodes: Sequence[Node],
        degrees: Sequence[int],
        offsets,
        mate,
        port_node,
        *,
        validate: bool = True,
    ) -> None:
        nodes = tuple(nodes)
        degrees = tuple(degrees)
        offsets = _as_q(offsets)
        mate = _as_q(mate)
        port_node = _as_q(port_node)
        if validate:
            _validate_arrays(nodes, degrees, offsets, mate, port_node)
        self._nodes = nodes
        self._hash = None
        self._compiled = CompiledGraph.from_arrays(
            nodes, degrees, offsets, mate, port_node
        )
        # ``_degrees``, ``_p``, ``_edges`` and ``_edge_at`` stay unset:
        # ``__getattr__`` materialises them on first touch.

    # ------------------------------------------------------------------
    # Lazy dict materialisation
    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        if name == "_degrees":
            value = dict(zip(self._nodes, self._compiled.degrees))
            self._degrees = value
            return value
        if name == "_p":
            value = self._materialise_involution()
            self._p = value
            return value
        if name == "_edges":
            value = tuple(self._iter_array_edges())
            self._edges = value
            return value
        if name == "_edge_at":
            value: dict[Port, PortEdge] = {}
            for edge in self._edges:
                for port in edge.ports:
                    value[port] = edge
            self._edge_at = value
            return value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _port_of(self, g: int) -> Port:
        cg = self._compiled
        k = cg.port_node[g]
        return (cg.nodes[k], g - cg.offsets[k] + 1)

    def _materialise_involution(self) -> dict[Port, Port]:
        cg = self._compiled
        port_of = self._port_of
        return {
            port_of(g): port_of(cg.mate[g]) for g in range(cg.num_ports)
        }

    def _iter_array_edges(self) -> Iterator[PortEdge]:
        """Edges in construction (global-port) order.

        For builders that pass repr-sorted nodes this is exactly the
        base class's canonical ``port_sort_key`` order, so the tuple is
        byte-identical to the dict-built graph's.
        """
        cg = self._compiled
        mate = cg.mate
        port_of = self._port_of
        for g in range(cg.num_ports):
            m = mate[g]
            if m < g:
                continue
            (u, i), (v, j) = port_of(g), port_of(m)
            yield PortEdge.make(u, i, v, j)

    # ------------------------------------------------------------------
    # Array-native accessors (no dict materialisation)
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        cg = self._compiled
        try:
            return cg.memo["num_edges"]
        except KeyError:
            pass
        # Each involution orbit of size two is one edge on two ports; a
        # fixed point (directed loop) is one edge on one port.
        arange = np.arange(cg.num_ports, dtype=np.int64)
        fixed = int((np.frombuffer(cg.mate, dtype=np.int64) == arange)
                    .sum()) if cg.num_ports else 0
        value = (cg.num_ports + fixed) // 2
        cg.memo["num_edges"] = value
        return value

    def degree(self, node: Node) -> int:
        cg = self._compiled
        return cg.degrees[cg.node_index[node]]

    @property
    def degrees(self) -> Mapping[Node, int]:
        return dict(zip(self._nodes, self._compiled.degrees))

    def ports(self, node: Node) -> range:
        return range(1, self.degree(node) + 1)

    def connection(self, node: Node, port: int) -> Port:
        cg = self._compiled
        try:
            k = cg.node_index[node]
        except KeyError:
            raise KeyError(
                f"({node!r}, {port}) is not a port of the graph"
            ) from None
        if not 1 <= port <= cg.degrees[k]:
            raise KeyError(
                f"({node!r}, {port}) is not a port of the graph"
            )
        return self._port_of(cg.mate[cg.offsets[k] + port - 1])

    @property
    def involution(self) -> Mapping[Port, Port]:
        return self._materialise_involution()

    def edge_at(self, node: Node, port: int) -> PortEdge:
        (u, j) = self.connection(node, port)
        return PortEdge.make(node, port, u, j)

    def regularity(self) -> int | None:
        distinct = set(self._compiled.degrees)
        if len(distinct) == 1:
            return next(iter(distinct))
        return None

    @property
    def max_degree(self) -> int:
        cg = self._compiled
        try:
            return cg.memo["max_degree"]
        except KeyError:
            degrees = np.diff(np.frombuffer(cg.offsets, dtype=np.int64))
            value = int(degrees.max()) if len(degrees) else 0
            cg.memo["max_degree"] = value
            return value

    def is_simple(self) -> bool:
        cg = self._compiled
        try:
            return cg.memo["is_simple"]
        except KeyError:
            pass
        value = self._compute_is_simple()
        cg.memo["is_simple"] = value
        return value

    def _compute_is_simple(self) -> bool:
        cg = self._compiled
        if not cg.num_ports:
            return True
        mate = np.frombuffer(cg.mate, dtype=np.int64)
        owner = np.frombuffer(cg.port_node, dtype=np.int64)
        peer = owner[mate]
        if bool((peer == owner).any()):
            return False  # loop (directed or undirected)
        # Parallel edges: some node lists the same neighbour twice.  A
        # sort and an adjacent compare, not ``np.unique``: numpy 2.x's
        # hash-based unique is ~70x slower on millions of int64 keys.
        key = np.sort(owner * cg.num_nodes + peer)
        return not bool((key[1:] == key[:-1]).any())

    # ------------------------------------------------------------------
    # Compiled form / pickling
    # ------------------------------------------------------------------

    def compiled(self) -> CompiledGraph:
        # Built eagerly in ``__init__`` — the whole point of the direct
        # path is that generation *is* compilation.
        return self._compiled

    def __getstate__(self):
        cg = self._compiled
        return ("arrays", self._nodes, cg.degrees, cg.offsets, cg.mate,
                cg.port_node)

    def __setstate__(self, state) -> None:
        tag, nodes, degrees, offsets, mate, port_node = state
        assert tag == "arrays"
        self.__init__(
            nodes, degrees, offsets, mate, port_node, validate=False
        )


def _validate_arrays(
    nodes: tuple,
    degrees: tuple,
    offsets: array,
    mate: array,
    port_node: array,
) -> None:
    n = len(nodes)
    if len(set(nodes)) != n:
        raise PortNumberingError("duplicate node labels")
    if len(degrees) != n or len(offsets) != n + 1 or offsets[0] != 0:
        raise PortNumberingError(
            f"CSR shape mismatch: {n} nodes, {len(degrees)} degrees, "
            f"{len(offsets)} offsets"
        )
    for k in range(n):
        if degrees[k] < 0:
            raise PortNumberingError(
                f"node {nodes[k]!r} has negative degree {degrees[k]}"
            )
        if offsets[k + 1] - offsets[k] != degrees[k]:
            raise PortNumberingError(
                f"offsets do not match degrees at node index {k}"
            )
    total = offsets[n]
    if len(mate) != total or len(port_node) != total:
        raise PortNumberingError(
            f"expected {total} ports, got len(mate)={len(mate)} "
            f"len(port_node)={len(port_node)}"
        )
    if not total:
        return
    mate_np = np.frombuffer(mate, dtype=np.int64)
    owner_np = np.frombuffer(port_node, dtype=np.int64)
    offs = np.frombuffer(offsets, dtype=np.int64)
    expected_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
    if not np.array_equal(owner_np, expected_owner):
        raise PortNumberingError("port_node does not match offsets")
    if mate_np.min() < 0 or mate_np.max() >= total:
        raise InvolutionError("mate index out of range")
    arange = np.arange(total, dtype=np.int64)
    if not np.array_equal(mate_np[mate_np], arange):
        raise InvolutionError("mate is not an involution")
