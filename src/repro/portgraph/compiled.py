"""The flat-array form of a port-numbered graph: its only storage.

Every :class:`~repro.portgraph.graph.PortNumberedGraph` holds one
:class:`CompiledGraph`, built with the graph, indexed by *global port
index*:

* port ``(v, i)`` of the node with index ``k`` becomes the integer
  ``g = offsets[k] + i - 1`` (a CSR-style layout: the ports of node
  ``k`` occupy the half-open range ``offsets[k]..offsets[k + 1]``);
* the involution ``p`` becomes one flat ``array('q')`` ``mate`` with
  ``mate[g]`` the global index of ``p``'s image — routing a message is a
  single array read;
* ``port_node[g]`` recovers the owning node index, so local port numbers
  are ``g - offsets[port_node[g]] + 1`` with no dict in sight.

Node order is the graph's own deterministic order (``graph.nodes``) —
the scheduler takes its fixed delivery order from here instead of
re-deriving it per run.
"""

from __future__ import annotations

from array import array

from repro.portgraph.ports import Node, Port

__all__ = ["CompiledGraph"]


class CompiledGraph:
    """The CSR arrays of one :class:`PortNumberedGraph`.

    Attributes
    ----------
    nodes:
        The graph's nodes in their deterministic construction order;
        node *index* below means position in this tuple.
    degrees:
        ``degrees[k]`` — degree of node ``k`` (plain tuple of ints).
    offsets:
        ``array('q')`` of length ``n + 1``; node ``k``'s ports occupy
        global indices ``offsets[k] .. offsets[k + 1] - 1``.
    mate:
        ``array('q')`` of length ``num_ports``; the involution as a flat
        map from global port index to global port index.
    port_node:
        ``array('q')``; the owning node index of each global port.
    """

    __slots__ = (
        "nodes",
        "_node_index",
        "num_nodes",
        "degrees",
        "offsets",
        "num_ports",
        "mate",
        "port_node",
        "memo",
        "_vector",
    )

    def __init__(
        self,
        nodes: tuple[Node, ...],
        degrees: tuple[int, ...],
        offsets: array,
        mate: array,
        port_node: array,
    ) -> None:
        # Arrays must be ``array('q')``: the buffer-protocol contract the
        # vector engine's zero-copy views rely on.  Structural validity
        # is the caller's responsibility (see
        # ``PortNumberedGraph.from_arrays``).
        self.nodes = nodes
        n = len(nodes)
        self.num_nodes = n
        self._node_index = None
        self.degrees = degrees
        self.offsets = offsets
        self.num_ports = offsets[n] if len(offsets) > n else 0
        self.mate = mate
        self.port_node = port_node
        #: Derived read-only tables keyed by their producer (vector
        #: kernels stash per-algorithm schedules here so repeated runs
        #: on one graph pay the derivation once).  Entries must be
        #: immutable or never mutated.
        self.memo: dict = {}
        self._vector = None

    @property
    def node_index(self) -> dict[Node, int]:
        """``node_index[v]`` — the index of node *v*, built on first use.

        Only per-node lookups read it; a unit that stays on the arrays
        never pays for the ``n``-entry dict.
        """
        if self._node_index is None:
            self._node_index = {v: k for k, v in enumerate(self.nodes)}
        return self._node_index

    def vector(self):
        """The numpy struct-of-arrays view of this graph, memoised.

        Kept in its own slot, not in :attr:`memo`: the view shares the
        memo dict, so storing it there would make a reference cycle and
        leave a dropped graph to the cyclic collector.
        """
        if self._vector is None:
            from repro.obs.spans import span
            from repro.portgraph.vector import VectorGraph

            with span("graph_build:vector_view", n=self.num_nodes):
                self._vector = VectorGraph(self)
        return self._vector

    def flat_lists(self) -> tuple[list, list]:
        """``(mate, port_node)`` as plain lists, memoised.

        The ``array('q')`` form is the compact source of truth; hot
        loops read the list form (CPython list indexing returns cached
        int objects instead of re-boxing).
        """
        try:
            return self.memo["flat_lists"]
        except KeyError:
            lists = (list(self.mate), list(self.port_node))
            self.memo["flat_lists"] = lists
            return lists

    # -- index arithmetic ---------------------------------------------------

    def gport(self, node_index: int, local_port: int) -> int:
        """Global index of local port *local_port* (1-based) of a node."""
        return self.offsets[node_index] + local_port - 1

    def local(self, g: int) -> int:
        """The 1-based local port number of global port *g*."""
        return g - self.offsets[self.port_node[g]] + 1

    def port(self, g: int) -> Port:
        """Global port index back to the model's ``(node, port)`` pair."""
        k = self.port_node[g]
        return (self.nodes[k], g - self.offsets[k] + 1)

    def peer_local(self, g: int) -> int:
        """Local port number at the far end of global port *g*."""
        return self.local(self.mate[g])

    def peer_local_list(self) -> list[int]:
        """:meth:`peer_local` for every global port, memoised."""
        try:
            return self.memo["peer_local"]
        except KeyError:
            mate, port_node = self.flat_lists()
            offsets = self.offsets
            table = [
                mate[g] - offsets[port_node[mate[g]]] + 1
                for g in range(self.num_ports)
            ]
            self.memo["peer_local"] = table
            return table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledGraph(n={self.num_nodes}, ports={self.num_ports})"
        )
