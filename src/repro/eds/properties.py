"""Edge dominating set definitions (paper Sections 1-2).

An edge ``e1`` *dominates* every edge adjacent to it, including itself.
A set ``D`` of edges is an *edge dominating set* (EDS) when every edge of
the graph is dominated by some edge of ``D``.  These predicates operate on
sets of :class:`~repro.portgraph.ports.PortEdge` and are deliberately
independent of the matching substrate (no import cycle).
:func:`is_edge_dominating_set` checks on the graph's CSR arrays, and
reads a simulation's mask-backed
:class:`~repro.runtime.outputs.EdgeSelection` straight off its port mask.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node, PortEdge
from repro.runtime.outputs import EdgeSelection

__all__ = [
    "dominates",
    "dominated_edges",
    "undominated_edges",
    "is_edge_dominating_set",
    "domination_deficiency",
]


def dominates(e1: PortEdge, e2: PortEdge) -> bool:
    """True when *e1* dominates *e2* (shared endpoint, or identical)."""
    return bool(e1.endpoints & e2.endpoints)


def dominated_edges(
    graph: PortNumberedGraph, dominating: Iterable[PortEdge]
) -> frozenset[PortEdge]:
    """All graph edges dominated by the set *dominating*."""
    covered: set[Node] = set()
    chosen: set[PortEdge] = set()
    for e in dominating:
        covered |= e.endpoints
        chosen.add(e)
    return frozenset(
        e for e in graph.edges if e in chosen or (e.endpoints & covered)
    )


def undominated_edges(
    graph: PortNumberedGraph, dominating: Iterable[PortEdge]
) -> frozenset[PortEdge]:
    """All graph edges *not* dominated by *dominating*."""
    return frozenset(graph.edges) - dominated_edges(graph, dominating)


def _covers_every_edge(compiled, covered) -> bool:
    """Whether every edge has an endpoint in the node mask *covered*."""
    port_node = np.frombuffer(compiled.port_node, dtype=np.int64)
    mate = np.frombuffer(compiled.mate, dtype=np.int64)
    owner = covered[port_node]
    return bool((owner | owner[mate]).all())


def is_edge_dominating_set(
    graph: PortNumberedGraph, dominating: Iterable[PortEdge]
) -> bool:
    """True when every edge of *graph* is dominated (paper §1.1).

    The check runs on the graph's CSR arrays: a node mask of the
    endpoints of *dominating*, then two gathers and an OR over the
    ports, with no :class:`PortEdge` of the graph built.  A mask-backed
    selection of this same graph reads its node mask off its port mask.
    Dominating edges whose endpoints are not graph nodes cover nothing,
    as in the set definition (:func:`undominated_edges`).
    """
    compiled = graph.compiled()
    if compiled.num_ports == 0:
        return True  # no edges: everything (vacuously) dominated
    if isinstance(dominating, EdgeSelection) and dominating.graph is graph:
        return _covers_every_edge(compiled, dominating.covered_nodes())
    covered = np.zeros(compiled.num_nodes, dtype=bool)
    index = compiled.node_index
    for e in dominating:
        for v in e.endpoints:
            k = index.get(v)
            if k is not None:
                covered[k] = True
    return _covers_every_edge(compiled, covered)


def domination_deficiency(
    graph: PortNumberedGraph, dominating: Iterable[PortEdge]
) -> int:
    """The number of undominated edges (0 iff *dominating* is an EDS)."""
    return len(undominated_edges(graph, dominating))
