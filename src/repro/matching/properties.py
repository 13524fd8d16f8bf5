"""Structural predicates on edge sets: matchings, k-matchings, star forests.

These operate on sets of :class:`~repro.portgraph.ports.PortEdge` drawn
from a :class:`~repro.portgraph.graph.PortNumberedGraph` and implement the
definitions of paper Section 2 plus the structural invariants used in the
proofs of Theorems 4 and 5 (forest of node-disjoint stars, 2-matchings).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node, PortEdge

__all__ = [
    "covered_nodes",
    "degree_in",
    "is_matching",
    "is_k_matching",
    "is_maximal_matching",
    "is_edge_cover",
    "is_forest",
    "is_star_forest",
    "has_path_of_length_three",
]


def covered_nodes(edges: Iterable[PortEdge]) -> frozenset[Node]:
    """All nodes covered by (incident to) at least one edge in *edges*."""
    covered: set[Node] = set()
    for e in edges:
        covered |= e.endpoints
    return frozenset(covered)


def degree_in(edges: Iterable[PortEdge]) -> dict[Node, int]:
    """Node degrees in the subgraph induced by *edges* (loops count 2)."""
    degrees: Counter[Node] = Counter()
    for e in edges:
        degrees[e.u] += 1
        degrees[e.v] += 1
    return dict(degrees)


def is_matching(edges: Iterable[PortEdge]) -> bool:
    """True when no node is incident to two edges (paper §2).

    Loops are never part of a matching (they cover their endpoint twice).
    """
    return is_k_matching(edges, 1)


def is_k_matching(edges: Iterable[PortEdge], k: int) -> bool:
    """True when every node is incident to at most *k* edges (paper §2)."""
    return all(d <= k for d in degree_in(edges).values())


def is_maximal_matching(
    graph: PortNumberedGraph, edges: Iterable[PortEdge]
) -> bool:
    """True when *edges* is a matching not extendable by any graph edge.

    Equivalent characterisation used in the paper (§1.1): a matching is
    maximal iff it is also an edge dominating set.
    """
    edge_set = set(edges)
    if not is_matching(edge_set):
        return False
    covered = covered_nodes(edge_set)
    return all(
        e in edge_set or (e.endpoints & covered) for e in graph.edges
    )


def is_edge_cover(
    graph: PortNumberedGraph, edges: Iterable[PortEdge]
) -> bool:
    """True when every node of the graph is covered (paper §2).

    Nodes of degree 0 cannot be covered, so a graph with isolated nodes
    has no edge cover; this predicate follows that convention.
    """
    return covered_nodes(edges) == frozenset(graph.nodes)


def is_forest(edges: Iterable[PortEdge]) -> bool:
    """True when the subgraph induced by *edges* is acyclic.

    Loops and parallel edges count as cycles.
    """
    edge_list = list(edges)
    if any(e.is_loop for e in edge_list):
        return False
    nodes = covered_nodes(edge_list)
    if len(edge_list) != len(set(edge_list)):
        return False
    # A graph is a forest iff |E| = |V| - (number of components).
    parent: dict[Node, Node] = {v: v for v in nodes}

    def find(v: Node) -> Node:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edge_list:
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def is_star_forest(edges: Iterable[PortEdge]) -> bool:
    """True when every connected component of *edges* is a star.

    This is the shape that phase II of Theorem 4 guarantees: a forest of
    node-disjoint stars (each component has at most one node of degree
    two or more).
    """
    edge_list = list(edges)
    if not is_forest(edge_list):
        return False
    return not has_path_of_length_three(edge_list)


def has_path_of_length_three(edges: Iterable[PortEdge]) -> bool:
    """True when the induced subgraph contains a path with three edges.

    A forest is a star forest iff it has no path of length three (the
    criterion used in the proof of Theorem 4): a middle edge of such a
    path has both endpoints of degree >= 2.
    """
    degrees = degree_in(edges)
    for e in edges:
        if e.is_loop:
            continue
        if degrees[e.u] >= 2 and degrees[e.v] >= 2:
            return True
    return False
