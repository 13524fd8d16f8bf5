"""Petersen 2-factorisation of 2k-regular multigraphs.

Petersen's theorem (1891; paper Section 2, reference [20]) states that
every 2k-regular multigraph decomposes into k edge-disjoint 2-factors.
Both lower-bound constructions (paper Sections 3.2 and 4.1) use such a
decomposition to define their adversarial port numbering: each factor is
oriented into directed cycles, and factor ``i`` pairs port ``2i - 1`` with
port ``2i``.

Algorithm (the classical constructive proof):

1. Orient each connected component along an Euler circuit.  Every node now
   has out-degree = in-degree = k.
2. Form the bipartite *split graph*: left copy ``(v, 'out')``, right copy
   ``(v, 'in')``, one bipartite edge per arc.  The split graph is
   k-regular, so by Hall's theorem it has a perfect matching.
3. Repeatedly extract a perfect matching (our Hopcroft-Karp) and remove
   it.  Each matching assigns every node exactly one outgoing and one
   incoming arc — a spanning union of directed cycles, i.e. a 2-factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

from repro.exceptions import FactorizationError
from repro.factorization.euler import Arc, MultiEdge, orient_along_euler
from repro.matching.bipartite import maximum_bipartite_matching
from repro.portgraph.ports import Node

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["TwoFactor", "two_factorise", "two_factorise_nx", "is_two_factor"]


@dataclass(frozen=True)
class TwoFactor:
    """One 2-factor, stored as an orientation into directed cycles.

    ``arcs`` contains exactly one outgoing and one incoming arc per node of
    the factorised graph; following successors traces the disjoint cycles.
    """

    arcs: tuple[Arc, ...]

    def successor_map(self) -> dict[Node, Node]:
        """Map every node to its successor on its cycle."""
        return {arc.tail: arc.head for arc in self.arcs}

    def predecessor_map(self) -> dict[Node, Node]:
        """Map every node to its predecessor on its cycle."""
        return {arc.head: arc.tail for arc in self.arcs}

    def edge_keys(self) -> frozenset[Hashable]:
        """The identities of the undirected edges used by this factor."""
        return frozenset(arc.key for arc in self.arcs)

    def cycles(self) -> list[list[Node]]:
        """The factor's cycles, each as a list of nodes in cycle order."""
        successor = self.successor_map()
        remaining = set(successor)
        result: list[list[Node]] = []
        while remaining:
            start = min(remaining, key=repr)
            cycle = [start]
            remaining.discard(start)
            node = successor[start]
            while node != start:
                cycle.append(node)
                remaining.discard(node)
                node = successor[node]
            result.append(cycle)
        return result


def two_factorise(
    nodes: Iterable[Node],
    edges: Sequence[MultiEdge],
) -> list[TwoFactor]:
    """Decompose a 2k-regular multigraph into k 2-factors.

    Raises
    ------
    FactorizationError
        If the graph is not regular of even degree, or (impossible for
        correct input) a perfect matching cannot be extracted.
    """
    node_list = sorted(set(nodes), key=repr)
    degree: dict[Node, int] = {v: 0 for v in node_list}
    for edge in edges:
        degree[edge.u] += 1
        degree[edge.v] += 1

    degree_values = set(degree.values())
    if len(degree_values) > 1:
        raise FactorizationError(
            f"2-factorisation requires a regular graph; degrees "
            f"{sorted(degree_values)}"
        )
    d = next(iter(degree_values)) if degree_values else 0
    if d % 2:
        raise FactorizationError(
            f"2-factorisation requires even degree, got {d}"
        )
    k = d // 2
    if k == 0:
        return []

    arcs = orient_along_euler(node_list, edges)

    # out_arcs[u][v] = stack of parallel arcs u -> v awaiting assignment
    out_arcs: dict[Node, dict[Node, list[Arc]]] = {v: {} for v in node_list}
    for arc in arcs:
        out_arcs[arc.tail].setdefault(arc.head, []).append(arc)

    factors: list[TwoFactor] = []
    for _ in range(k):
        adjacency = {
            u: sorted(
                (v for v, stack in heads.items() if stack), key=repr
            )
            for u, heads in out_arcs.items()
        }
        matching = maximum_bipartite_matching(adjacency)
        if len(matching) != len(node_list):
            raise FactorizationError(
                "internal error: split graph of an Euler orientation "
                "must have a perfect matching"
            )
        chosen: list[Arc] = []
        for u, v in sorted(matching.items(), key=lambda kv: repr(kv[0])):
            chosen.append(out_arcs[u][v].pop())
        factors.append(TwoFactor(tuple(chosen)))

    leftovers = sum(
        len(stack) for heads in out_arcs.values() for stack in heads.values()
    )
    if leftovers:
        raise FactorizationError(
            f"internal error: {leftovers} arcs left after factorisation"
        )
    return factors


def _nx_multiedges(graph: nx.Graph) -> list[MultiEdge]:
    """Extract keyed edges from a networkx (multi)graph."""
    edges: list[MultiEdge] = []
    if graph.is_multigraph():
        for index, (u, v, key) in enumerate(graph.edges(keys=True)):
            edges.append(MultiEdge(u, v, (u, v, key, index)))
    else:
        for u, v in graph.edges():
            a, b = sorted((u, v), key=repr)
            edges.append(MultiEdge(u, v, (a, b)))
    return edges


def two_factorise_nx(graph: nx.Graph) -> list[TwoFactor]:
    """Petersen 2-factorisation of a 2k-regular networkx (multi)graph."""
    if graph.is_directed():
        raise FactorizationError("two_factorise_nx expects an undirected graph")
    return two_factorise(graph.nodes, _nx_multiedges(graph))


def is_two_factor(
    factor: TwoFactor,
    nodes: Iterable[Node],
    edges: Sequence[MultiEdge] | None = None,
) -> bool:
    """Check that *factor* spans *nodes* with out-degree = in-degree = 1.

    When *edges* is given, additionally checks that every arc is an
    orientation of a distinct edge from the sequence.
    """
    node_set = set(nodes)
    tails = [arc.tail for arc in factor.arcs]
    heads = [arc.head for arc in factor.arcs]
    if set(tails) != node_set or set(heads) != node_set:
        return False
    if len(set(tails)) != len(tails) or len(set(heads)) != len(heads):
        return False
    if edges is not None:
        by_key = {edge.key: edge for edge in edges}
        used = set()
        for arc in factor.arcs:
            edge = by_key.get(arc.key)
            if edge is None or arc.key in used:
                return False
            if {arc.tail, arc.head} != {edge.u, edge.v}:
                return False
            used.add(arc.key)
    return True
