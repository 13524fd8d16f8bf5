"""Baseline: distributed maximal matching with unique identifiers.

Paper §1.3 recalls that with unique node identifiers any distributed
maximal matching algorithm yields a 2-approximation of the minimum edge
dominating set.  This module provides a simple deterministic protocol in
the identified model, used by the evaluation harness to quantify the
price of anonymity.

Protocol (phases of three rounds after an id-exchange round):

1. *status* — every unmatched node announces it is still available;
   silence means a neighbour is matched or exhausted.
2. *propose* — every unmatched node whose smallest-id available neighbour
   has a *smaller* id than its own proposes to it; nodes that are local
   minima of the available subgraph stay silent and act as acceptors.
   The role split guarantees a proposer can never simultaneously be
   accepted and accept someone else, which would break the output's
   internal consistency.
3. *respond* — acceptors accept the smallest-id proposer and reject the
   rest; proposers reject any proposals they received.  Accepted pairs
   halt with the matched edge.

In every phase the globally smallest available id that still has an
available neighbour gets matched (all its available neighbours propose to
it), so the algorithm terminates within ``n`` phases — O(n) worst-case
rounds.  This is intentionally the simplest correct baseline, not the
O(Δ + log* n) algorithm of Panconesi-Rizzi [19]: its role in the harness
is approximation-quality comparison, not round-complexity racing.
"""

from __future__ import annotations

from typing import Mapping

from repro.runtime.algorithm import Message, NodeProgram

__all__ = ["GreedyMaximalMatchingIds"]

_PHASE_LEN = 3  # status, propose, respond


class GreedyMaximalMatchingIds(NodeProgram):
    """Identified-model greedy maximal matching (2-approx EDS baseline).

    Use with :func:`repro.runtime.run_identified`::

        run_identified(graph, GreedyMaximalMatchingIds)
    """

    def __init__(self, degree: int, uid: int) -> None:
        super().__init__(degree)
        self.uid = uid
        self.neighbour_id: dict[int, int] = {}
        self.proposed_port: int | None = None
        self.pending: list[tuple[int, int]] = []  # (peer id, port)
        self.accepted_port: int | None = None

    def send(self, rnd: int) -> Mapping[int, Message]:
        ports = range(1, self.degree + 1)
        if rnd == 0:
            return {i: ("id", self.uid) for i in ports}
        phase_round = (rnd - 1) % _PHASE_LEN
        if phase_round == 0:
            return {i: ("alive",) for i in ports}
        if phase_round == 1:
            if self.proposed_port is not None:
                return {self.proposed_port: ("prop", self.uid)}
            return {}
        # respond round
        replies: dict[int, Message] = {}
        if self.pending:
            self.pending.sort()
            if self.proposed_port is None:
                # acceptor: take the smallest-id proposer
                self.accepted_port = self.pending[0][1]
                replies[self.accepted_port] = ("acc",)
                losers = self.pending[1:]
            else:
                losers = self.pending
            for _, port in losers:
                replies[port] = ("rej",)
        return replies

    def receive(self, rnd: int, inbox: Mapping[int, Message]) -> None:
        if rnd == 0:
            for i, (_, uid) in inbox.items():
                self.neighbour_id[i] = uid
            return
        phase_round = (rnd - 1) % _PHASE_LEN
        if phase_round == 0:
            alive = [i for i, msg in inbox.items() if msg == ("alive",)]
            if not alive:
                self.halt(frozenset())  # no partner can ever appear
                return
            best = min(alive, key=lambda i: (self.neighbour_id[i], i))
            if self.neighbour_id[best] < self.uid:
                self.proposed_port = best  # proposer this phase
            else:
                self.proposed_port = None  # local minimum: acceptor
            self.pending = []
            self.accepted_port = None
        elif phase_round == 1:
            self.pending = [
                (msg[1], i)
                for i, msg in inbox.items()
                if isinstance(msg, tuple) and msg and msg[0] == "prop"
            ]
        else:
            if self.accepted_port is not None:
                self.halt({self.accepted_port})
                return
            if self.proposed_port is not None:
                if inbox.get(self.proposed_port) == ("acc",):
                    self.halt({self.proposed_port})
                    return
            self.proposed_port = None

    @classmethod
    def vector_program(cls, graph, ids):
        """The vector engine's kernel for this algorithm.

        Returns ``None`` (→ the compiled loop) when an identifier does
        not fit the engine's int64 id arrays.
        """
        from repro.algorithms.vector import VectorGreedyMatchingIds

        try:
            return VectorGreedyMatchingIds(graph, ids)
        except OverflowError:
            return None


# Registered where it is defined: work units reach this program by name.
from repro.registry.algorithms import register_identified  # noqa: E402

register_identified(
    "ids_greedy",
    lambda graph: GreedyMaximalMatchingIds,
    description="identified-model greedy maximal matching baseline",
)
