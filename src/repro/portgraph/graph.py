"""The port-numbered graph model of paper Section 2.1.

A port-numbered graph ``G`` is a triple ``(V, d, p)``:

* ``V`` — a finite set of nodes,
* ``d : V -> N`` — the degree function,
* ``p`` — an involution on the port set
  ``P = {(v, i) : v in V, 1 <= i <= d(v)}``.

Orbits of size two of ``p`` are undirected edges (possibly loops or parallel
edges); fixed points are directed loops.  :class:`PortNumberedGraph` stores
this structure immutably in one form, the CSR arrays of
:class:`~repro.portgraph.compiled.CompiledGraph`, built when the graph is
constructed, and answers every graph-theoretic query (edges, adjacency,
regularity, simplicity) from them.  There are two constructors:

* ``PortNumberedGraph(degrees, involution)`` validates the two mappings
  and lowers them once to arrays, nodes in ``repr``-sorted order (the
  ``graph_build:compile`` span);
* :meth:`PortNumberedGraph.from_arrays` takes the arrays from a generator
  that already knows the flat layout (:mod:`repro.generators.direct`,
  :mod:`repro.generators.pairing`).

Equality and hashing compare the ``(d, p)`` dicts: the ones a graph was
built from, or, for a graph built from arrays, dicts materialised on
first use.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import (
    InvolutionError,
    NotRegularGraphError,
    NotSimpleGraphError,
    PortNumberingError,
)
from repro.obs.spans import span
from repro.portgraph.compiled import CompiledGraph
from repro.portgraph.ports import Node, Port, PortEdge, port_sort_key

__all__ = ["PortNumberedGraph"]


class PortNumberedGraph:
    """An immutable port-numbered (multi)graph.

    Parameters
    ----------
    degrees:
        Mapping from node to its degree ``d(v) >= 0``.
    involution:
        Mapping ``p`` from port to port.  It must be defined on exactly the
        port set implied by *degrees* and satisfy ``p(p(x)) == x``.

    Raises
    ------
    PortNumberingError
        If the involution's domain is not exactly the implied port set or a
        degree is negative.
    InvolutionError
        If ``p`` is not self-inverse.
    """

    __slots__ = ("_nodes", "_compiled", "_degrees", "_p", "_edges", "_hash")

    def __init__(
        self,
        degrees: Mapping[Node, int],
        involution: Mapping[Port, Port],
    ) -> None:
        degrees = dict(degrees)
        for node, degree in degrees.items():
            if degree < 0:
                raise PortNumberingError(
                    f"node {node!r} has negative degree {degree}"
                )

        expected_ports = {
            (node, i)
            for node, degree in degrees.items()
            for i in range(1, degree + 1)
        }
        given_ports = set(involution)
        if given_ports != expected_ports:
            missing = sorted(expected_ports - given_ports, key=port_sort_key)
            extra = sorted(given_ports - expected_ports, key=port_sort_key)
            raise PortNumberingError(
                "involution domain does not match the port set: "
                f"missing={missing[:5]!r}... extra={extra[:5]!r}..."
                if len(missing) > 5 or len(extra) > 5
                else "involution domain does not match the port set: "
                f"missing={missing!r} extra={extra!r}"
            )

        p = dict(involution)
        for port, image in p.items():
            if image not in p:
                raise InvolutionError(
                    f"p{port!r} = {image!r} is not a port of the graph"
                )
            if p[image] != port:
                raise InvolutionError(
                    f"p is not an involution: p{port!r} = {image!r} "
                    f"but p{image!r} = {p[image]!r}"
                )

        nodes = tuple(sorted(degrees, key=repr))
        with span("graph_build:compile", n=len(nodes)):
            self._adopt(_lower(nodes, degrees, p))
        self._degrees = degrees
        self._p = p

    @classmethod
    def from_arrays(
        cls,
        nodes: Sequence[Node],
        degrees: Sequence[int],
        offsets,
        mate,
        port_node,
        *,
        validate: bool = True,
    ) -> "PortNumberedGraph":
        """A graph given by its CSR arrays (see :class:`CompiledGraph`).

        *nodes* fixes the node order: node *index* means position in
        this sequence, and ``degrees[k]`` is the degree of node ``k``.
        The arrays may be anything convertible to ``array('q')``.
        *validate* checks CSR consistency and the involution; builders
        that construct provably valid arrays pass ``False``.
        """
        nodes = tuple(nodes)
        degrees = tuple(degrees)
        offsets, mate, port_node = _as_q(offsets), _as_q(mate), _as_q(port_node)
        if validate:
            _validate_arrays(nodes, degrees, offsets, mate, port_node)
        self = object.__new__(cls)
        self._adopt(CompiledGraph(nodes, degrees, offsets, mate, port_node))
        return self

    def _adopt(self, compiled: CompiledGraph) -> None:
        self._nodes = compiled.nodes
        self._compiled = compiled
        self._edges = None
        self._hash = None

    def __getattr__(self, name: str):
        # Reached only for an unset slot: a graph built from arrays
        # materialises its dict views on first use.
        if name == "_degrees":
            value = self.degrees
        elif name == "_p":
            value = self.involution
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        setattr(self, name, value)
        return value

    def _iter_array_edges(self) -> Iterator[PortEdge]:
        """Edges in global-port order: the canonical ``port_sort_key``
        order when the nodes are ``repr``-sorted."""
        cg = self._compiled
        mate, port = cg.mate, cg.port
        for g in range(cg.num_ports):
            m = mate[g]
            if m >= g:
                (u, i), (v, j) = port(g), port(m)
                yield PortEdge.make(u, i, v, j)

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes in a deterministic order."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def edges(self) -> tuple[PortEdge, ...]:
        """All edges (an edge multiset; loops included), built on first use."""
        if self._edges is None:
            self._edges = tuple(self._iter_array_edges())
        return self._edges

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
        """The degree ``d(v)`` of *node*."""
        cg = self._compiled
        return cg.degrees[cg.node_index[node]]

    @property
    def degrees(self) -> Mapping[Node, int]:
        """The degree function as a fresh dict, in node order."""
        return dict(zip(self._nodes, self._compiled.degrees))

    def ports(self, node: Node) -> range:
        """The port numbers ``1..d(v)`` of *node*."""
        return range(1, self.degree(node) + 1)

    @property
    def all_ports(self) -> Iterator[Port]:
        """Iterate over every port of the graph."""
        for node in self._nodes:
            for i in self.ports(node):
                yield (node, i)

    def connection(self, node: Node, port: int) -> Port:
        """Return ``p(node, port)`` — the port this port is connected to."""
        cg = self._compiled
        k = cg.node_index.get(node)
        if k is None or not 1 <= port <= cg.degrees[k]:
            raise KeyError(
                f"({node!r}, {port}) is not a port of the graph"
            )
        return cg.port(cg.mate[cg.offsets[k] + port - 1])

    @property
    def involution(self) -> Mapping[Port, Port]:
        """The involution ``p`` as a fresh dict, in global-port order."""
        cg = self._compiled
        port = cg.port
        return {port(g): port(cg.mate[g]) for g in range(cg.num_ports)}

    def neighbour(self, node: Node, port: int) -> Node:
        """The node at the other end of the edge attached to this port."""
        return self.connection(node, port)[0]

    def edge_at(self, node: Node, port: int) -> PortEdge:
        """The edge attached to port ``(node, port)``."""
        (u, j) = self.connection(node, port)
        return PortEdge.make(node, port, u, j)

    def edges_at(self, node: Node) -> tuple[PortEdge, ...]:
        """All edges incident to *node*, ordered by port number.

        An undirected loop at *node* appears once per port, matching the
        convention that it occupies two ports.
        """
        return tuple(self.edge_at(node, i) for i in self.ports(node))

    def neighbours(self, node: Node) -> tuple[Node, ...]:
        """Neighbours of *node* listed by increasing port number."""
        return tuple(self.neighbour(node, i) for i in self.ports(node))

    # ------------------------------------------------------------------
    # Graph-class predicates
    # ------------------------------------------------------------------

    def is_simple(self) -> bool:
        """True when there are no loops and no parallel edges."""
        cg = self._compiled
        try:
            return cg.memo["is_simple"]
        except KeyError:
            pass
        value = True
        if cg.num_ports:
            mate = np.frombuffer(cg.mate, dtype=np.int64)
            owner = np.frombuffer(cg.port_node, dtype=np.int64)
            peer = owner[mate]
            if bool((peer == owner).any()):
                value = False  # loop (directed or undirected)
            else:
                # Parallel edges: some node lists the same neighbour
                # twice.  A sort and an adjacent compare, not
                # ``np.unique``: numpy 2.x's hash-based unique is ~70x
                # slower on millions of int64 keys.
                key = np.sort(owner * cg.num_nodes + peer)
                value = not bool((key[1:] == key[:-1]).any())
        cg.memo["is_simple"] = value
        return value

    def require_simple(self) -> None:
        """Raise :class:`NotSimpleGraphError` unless the graph is simple."""
        if not self.is_simple():
            raise NotSimpleGraphError(
                "operation requires a simple port-numbered graph"
            )

    def regularity(self) -> int | None:
        """Return ``d`` if the graph is d-regular, otherwise ``None``."""
        distinct = set(self._compiled.degrees)
        if len(distinct) == 1:
            return next(iter(distinct))
        return None

    def require_regular(self) -> int:
        """Return the common degree or raise :class:`NotRegularGraphError`."""
        d = self.regularity()
        if d is None:
            raise NotRegularGraphError(
                f"graph is not regular; degrees span {sorted(set(self._compiled.degrees))}"
            )
        return d

    @property
    def max_degree(self) -> int:
        """The maximum degree (0 for the empty graph)."""
        cg = self._compiled
        try:
            return cg.memo["max_degree"]
        except KeyError:
            degrees = np.diff(np.frombuffer(cg.offsets, dtype=np.int64))
            value = int(degrees.max()) if len(degrees) else 0
            cg.memo["max_degree"] = value
            return value

    # ------------------------------------------------------------------
    # Simple-graph conveniences
    # ------------------------------------------------------------------

    def port_between(self, u: Node, v: Node) -> tuple[int, int]:
        """For a simple graph, the ports ``(l(u,v), l(v,u))`` of edge {u,v}.

        This is the paper's notation from Section 5: the unique port numbers
        ``i`` and ``j`` with ``p(u, i) = (v, j)``.
        """
        self.require_simple()
        for i in self.ports(u):
            other, j = self.connection(u, i)
            if other == v:
                return (i, j)
        raise KeyError(f"{{{u!r}, {v!r}}} is not an edge of the graph")

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when some edge joins *u* and *v*."""
        return any(self.neighbour(u, i) == v for i in self.ports(u))

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortNumberedGraph):
            return NotImplemented
        return self._degrees == other._degrees and self._p == other._p

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    frozenset(self._degrees.items()),
                    frozenset(self._p.items()),
                )
            )
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PortNumberedGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"max_degree={self.max_degree})"
        )

    def __getstate__(self):
        cg = self._compiled
        return (cg.nodes, cg.degrees, cg.offsets, cg.mate, cg.port_node)

    def __setstate__(self, state) -> None:
        self._adopt(CompiledGraph(*state))

    # ------------------------------------------------------------------
    # Compiled form
    # ------------------------------------------------------------------

    def compiled(self) -> CompiledGraph:
        """The graph's :class:`~repro.portgraph.compiled.CompiledGraph`,
        built with the graph and shared by every simulation run."""
        return self._compiled

    # ------------------------------------------------------------------
    # Derived constructions
    # ------------------------------------------------------------------

    def induced_subgraph_ports(
        self, keep: Iterable[PortEdge]
    ) -> dict[Node, set[int]]:
        """Map each node to the set of its ports used by edges in *keep*.

        Helper for rendering and for building outputs from edge sets.
        """
        result: dict[Node, set[int]] = {node: set() for node in self._nodes}
        for edge in keep:
            for (node, port) in edge.ports:
                result[node].add(port)
        return result


def _lower(
    nodes: tuple[Node, ...],
    degree_of: Mapping[Node, int],
    p: Mapping[Port, Port],
) -> CompiledGraph:
    """One walk over the ``(d, p)`` dicts into CSR arrays: the ports of
    ``nodes[k]`` take global indices ``offsets[k]..offsets[k + 1] - 1``."""
    n = len(nodes)
    node_index = {v: k for k, v in enumerate(nodes)}
    degrees = tuple(degree_of[v] for v in nodes)
    offsets = [0] * (n + 1)
    port_owner: list[int] = []
    total = 0
    for k, degree in enumerate(degrees):
        offsets[k] = total
        port_owner.extend([k] * degree)
        total += degree
    offsets[n] = total
    mate = [0] * total
    for (v, i), (u, j) in p.items():
        mate[offsets[node_index[v]] + i - 1] = offsets[node_index[u]] + j - 1
    return CompiledGraph(
        nodes, degrees, array("q", offsets), array("q", mate),
        array("q", port_owner),
    )


def _as_q(values) -> array:
    """Coerce to the ``array('q')`` form the compiled contract requires."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    return array("q", values)


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
