"""Conversion between :mod:`networkx` graphs and port-numbered graphs.

Any simple undirected graph can be turned into a port-numbered graph by
choosing, for every node, an ordering of its incident edges (a *numbering
strategy*, see :mod:`repro.portgraph.numbering`).  Conversely a
port-numbered graph projects onto a :class:`networkx.MultiGraph` whose
edges remember their port pairs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.exceptions import GraphValidationError
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.numbering import NumberingStrategy, sequential_numbering
from repro.portgraph.ports import Node, Port

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["from_networkx", "to_networkx", "from_neighbour_orders"]


def from_neighbour_orders(
    orders: Mapping[Node, Sequence[Node]],
) -> PortNumberedGraph:
    """Build a port-numbered graph from explicit neighbour orderings.

    ``orders[v]`` lists the neighbours of ``v``; the neighbour in position
    ``k`` (0-based) is attached to port ``k + 1``.  Orders must be mutually
    consistent: ``u in orders[v]`` iff ``v in orders[u]``, and each
    neighbour may appear at most once (simple graphs only).
    """
    degrees = {node: len(neighbours) for node, neighbours in orders.items()}
    position: dict[tuple[Node, Node], int] = {}
    for node, neighbours in orders.items():
        for k, other in enumerate(neighbours):
            if (node, other) in position:
                raise GraphValidationError(
                    f"neighbour {other!r} listed twice for node {node!r}; "
                    "from_neighbour_orders supports simple graphs only"
                )
            if other not in orders:
                raise GraphValidationError(
                    f"node {node!r} lists unknown neighbour {other!r}"
                )
            position[(node, other)] = k + 1

    involution: dict[Port, Port] = {}
    for (node, other), i in position.items():
        j = position.get((other, node))
        if j is None:
            raise GraphValidationError(
                f"asymmetric adjacency: {node!r} lists {other!r} "
                f"but not vice versa"
            )
        involution[(node, i)] = (other, j)
    return PortNumberedGraph(degrees, involution)


def from_networkx(
    graph: nx.Graph,
    strategy: NumberingStrategy = sequential_numbering,
) -> PortNumberedGraph:
    """Convert a simple :class:`networkx.Graph` into a port-numbered graph.

    Parameters
    ----------
    graph:
        A simple undirected graph (no loops, no parallel edges).
    strategy:
        How each node numbers its neighbours; defaults to the deterministic
        :func:`~repro.portgraph.numbering.sequential_numbering`.
    """
    if graph.is_multigraph() or graph.is_directed():
        raise GraphValidationError(
            "from_networkx expects a simple undirected networkx.Graph"
        )
    if any(graph.has_edge(v, v) for v in graph.nodes):
        raise GraphValidationError("from_networkx does not accept self-loops")

    orders = strategy(graph)
    if set(orders) != set(graph.nodes):
        raise GraphValidationError(
            "numbering strategy must cover exactly the graph's nodes"
        )
    for node, neighbours in orders.items():
        if sorted(map(repr, neighbours)) != sorted(
            map(repr, graph.neighbors(node))
        ):
            raise GraphValidationError(
                f"numbering strategy returned a wrong neighbour multiset "
                f"for node {node!r}"
            )
    return from_neighbour_orders(orders)


def to_networkx(graph: PortNumberedGraph) -> nx.MultiGraph:
    """Project a port-numbered graph onto a :class:`networkx.MultiGraph`.

    Each edge carries attributes ``ports=((u, i), (v, j))`` recording where
    it attaches; directed loops (involution fixed points) become self-loops
    with attribute ``directed_loop=True``.
    """
    import networkx as nx

    result = nx.MultiGraph()
    result.add_nodes_from(graph.nodes)
    for edge in graph.edges:
        result.add_edge(
            edge.u,
            edge.v,
            ports=((edge.u, edge.i), (edge.v, edge.j)),
            directed_loop=edge.is_directed_loop,
        )
    return result


def to_simple_networkx(graph: PortNumberedGraph) -> nx.Graph:
    """Project a *simple* port-numbered graph onto a :class:`networkx.Graph`.

    Raises :class:`~repro.exceptions.NotSimpleGraphError` if the graph has
    loops or parallel edges.
    """
    import networkx as nx

    graph.require_simple()
    result = nx.Graph()
    result.add_nodes_from(graph.nodes)
    for edge in graph.edges:
        result.add_edge(edge.u, edge.v, ports=((edge.u, edge.i), (edge.v, edge.j)))
    return result


__all__.append("to_simple_networkx")
