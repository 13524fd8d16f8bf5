"""Dominating 2-matchings via the bipartite double cover (reference [21]).

Theorem 5's phase III is an application of Polishchuk and Suomela's
"simple local 3-approximation algorithm for vertex cover": a proposal
protocol equivalent to computing a maximal matching in the bipartite
double cover of the graph.  This module exposes that subroutine as a
standalone anonymous algorithm — run on the *whole* graph rather than
the phase III subgraph `H`:

* every node proposes along its ports in increasing order until a
  proposal is accepted or its ports are exhausted (the "black copy");
* every node accepts the first proposal it ever receives, breaking ties
  towards the smaller port (the "white copy").

The accepted edges form a 2-matching ``P`` (at most one outgoing and one
incoming acceptance per node) that *dominates every edge*: for any edge
``{u, v}``, if ``u`` never proposed to ``v`` then ``u`` was accepted
earlier (so ``u`` is covered), otherwise ``v`` received a proposal and
accepted one (so ``v`` is covered).  Consequently the covered nodes form
a vertex cover of size at most ``2|P| <= 3·OPT_VC`` — the node-based
covering result the paper contrasts its edge-based bounds against
(§1.4).

The protocol needs the degree bound Δ to size its round window (the
model gives nodes no other way to agree on when everybody is done).
"""

from __future__ import annotations

from typing import Mapping

from repro.exceptions import AlgorithmContractError
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node
from repro.runtime.algorithm import Message, NodeProgram
from repro.runtime.scheduler import run_anonymous

__all__ = ["DominatingTwoMatching", "three_approx_vertex_cover"]


class DominatingTwoMatching:
    """Factory for the [21] double-cover proposal algorithm.

    Usable as an anonymous algorithm::

        run_anonymous(graph, DominatingTwoMatching(max_degree=4))

    The output edge set is a 2-matching dominating every edge of the
    graph (so it is, in particular, an edge dominating set — with a
    worse ratio than Theorem 5's A(Δ), which is exactly why the paper
    builds more machinery around it).
    """

    def __init__(self, max_degree: int) -> None:
        if max_degree < 1:
            raise AlgorithmContractError(
                f"max_degree must be >= 1, got {max_degree}"
            )
        self.max_degree = max_degree

    def __call__(self, degree: int) -> NodeProgram:
        if degree > self.max_degree:
            raise AlgorithmContractError(
                f"node degree {degree} exceeds promised bound "
                f"Δ = {self.max_degree}"
            )
        return _DoubleCoverProgram(degree, self.max_degree)

    def total_rounds(self) -> int:
        """Every program halts after exactly 2Δ rounds."""
        return 2 * self.max_degree

    def vector_program(self, graph):
        """The vector engine's kernel for this algorithm."""
        from repro.algorithms.vector import VectorDoubleCover

        return VectorDoubleCover(graph, self.max_degree)


class _DoubleCoverProgram(NodeProgram):
    """Propose/respond cycles; cycle c occupies rounds 2c and 2c + 1."""

    __slots__ = ("delta", "index", "out_done", "accepted_in", "p_ports",
                 "pending")

    def __init__(self, degree: int, delta: int) -> None:
        super().__init__(degree)
        self.delta = delta
        self.index = 0  # next port to propose on (0-based)
        self.out_done = degree == 0
        self.accepted_in = False
        self.p_ports: set[int] = set()
        self.pending: list[int] = []

    def send(self, rnd: int) -> Mapping[int, Message]:
        if rnd % 2 == 0:
            # propose sub-round
            if not self.out_done and self.index < self.degree:
                return {self.index + 1: ("prop",)}
            return {}
        # respond sub-round
        if not self.pending:
            return {}
        replies: dict[int, Message] = {}
        proposals = sorted(self.pending)
        self.pending = []
        if not self.accepted_in:
            winner = proposals[0]
            replies[winner] = ("acc",)
            self.p_ports.add(winner)
            self.accepted_in = True
            losers = proposals[1:]
        else:
            losers = proposals
        for port in losers:
            replies[port] = ("rej",)
        return replies

    def receive(self, rnd: int, inbox: Mapping[int, Message]) -> None:
        if rnd % 2 == 0:
            self.pending = [
                i for i, msg in inbox.items() if msg == ("prop",)
            ]
        else:
            if not self.out_done and self.index < self.degree:
                port = self.index + 1
                reply = inbox.get(port)
                if reply == ("acc",):
                    self.p_ports.add(port)
                    self.out_done = True
                elif reply == ("rej",):
                    self.index += 1
                    if self.index >= self.degree:
                        self.out_done = True
        if rnd + 1 >= 2 * self.delta:
            self.halt(self.p_ports)


def three_approx_vertex_cover(
    graph: PortNumberedGraph, max_degree: int | None = None
) -> frozenset[Node]:
    """A 3-approximate vertex cover via the double-cover 2-matching.

    The cover is the set of nodes incident to the 2-matching ``P`` —
    each node knows its own membership locally (its output is
    non-empty), so this is a genuinely local computation; the helper
    merely collects the answer.  Isolated nodes are never needed in a
    cover.
    """
    delta = graph.max_degree if max_degree is None else max_degree
    if graph.num_edges == 0:
        return frozenset()
    result = run_anonymous(graph, DominatingTwoMatching(delta))
    return frozenset(
        v for v in graph.nodes if result.outputs[v]
    )
