"""Edge dominating set definitions (paper Sections 1-2).

An edge ``e1`` *dominates* every edge adjacent to it, including itself.
A set ``D`` of edges is an *edge dominating set* (EDS) when every edge of
the graph is dominated by some edge of ``D``.  These predicates operate on
sets of :class:`~repro.portgraph.ports.PortEdge` and are deliberately
independent of the matching substrate (no import cycle).
:func:`is_edge_dominating_set` also reads a simulation's mask-backed
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


def _is_eds_arrays(graph: PortNumberedGraph, dominating: Iterable[PortEdge]):
    """Array fast path for :func:`is_edge_dominating_set`, or ``None``.

    Engages only when the graph's compiled arrays already exist (the
    direct-to-CSR generators build them up front; dict-built graphs get
    them after the first simulation) — feasibility then costs two
    gathers and an OR over the port arrays instead of materialising
    every :class:`PortEdge`.  Semantics match the set-based
    check exactly: an edge is dominated iff one of its endpoints is an
    endpoint of some dominating edge (dominating edges whose endpoints
    are not graph nodes cover nothing, as in the set version, where a
    foreign endpoint never intersects a graph edge).
    """
    compiled = getattr(graph, "_compiled", None)
    if compiled is None:
        return None
    if compiled.num_ports == 0:
        return True  # no edges: everything (vacuously) dominated
    covered = np.zeros(compiled.num_nodes, dtype=bool)
    index = compiled.node_index
    for e in dominating:
        for v in e.endpoints:
            k = index.get(v)
            if k is not None:
                covered[k] = True
    return _covers_every_edge(compiled, covered)


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

    A mask-backed selection of this same graph is checked on its port
    mask without building a single :class:`PortEdge`.
    """
    if isinstance(dominating, EdgeSelection) and dominating.graph is graph:
        return _covers_every_edge(
            graph.compiled(), dominating.covered_nodes()
        )
    fast = _is_eds_arrays(graph, dominating)
    if fast is not None:
        return fast
    return not undominated_edges(graph, dominating)


def domination_deficiency(
    graph: PortNumberedGraph, dominating: Iterable[PortEdge]
) -> int:
    """The number of undominated edges (0 iff *dominating* is an EDS)."""
    return len(undominated_edges(graph, dominating))
