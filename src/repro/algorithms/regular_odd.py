"""Theorem 4: the O(d²)-time algorithm for d-regular graphs of odd degree.

The algorithm (paper Section 6) builds an edge dominating set ``D`` in two
phases over the matchings ``M(i, j)`` of Section 5:

* **Phase I** — for each pair ``(i, j)`` (sequentially, one synchronous
  step per pair) process all edges of ``M(i, j)`` in parallel: skip an
  edge if both endpoints are already covered by ``D``, otherwise add it.
  Because every node of an odd-degree-regular graph has a distinguishable
  neighbour (Lemma 1), the union of the ``M(i, j)`` covers every node, so
  phase I produces an *edge cover*; since an edge is never added when both
  endpoints are covered, the cover is a forest.

* **Phase II** — for each pair ``(i, j)`` again, process the edges of
  ``D ∩ M(i, j)`` in parallel: remove an edge when both its endpoints stay
  covered by ``D`` minus the edge.  This leaves a forest of node-disjoint
  stars (no path of three edges survives), hence
  ``|D| <= d|V|/(d + 1) <= (4 - 6/(d+1)) |D*|``.

Each pair step costs one communication round (the endpoints of the unique
incident ``M(i, j)`` edge exchange one coverage bit and then take the same
decision), so the whole algorithm runs in ``2d² + 2`` rounds — matching
the paper's ``O(d²)`` bound and independent of the number of nodes.

The node programs use their own degree as ``d``; running the algorithm on
a non-regular graph violates its contract (nodes would disagree on the
schedule).  Use :class:`~repro.algorithms.bounded_degree.BoundedDegreeEDS`
for general bounded-degree graphs.
"""

from __future__ import annotations

from typing import Mapping

from repro.algorithms.base import LabelAwareProgram, pair_at
from repro.runtime.algorithm import Message

__all__ = ["RegularOddEDS"]


class RegularOddEDS(LabelAwareProgram):
    """The two-phase Theorem 4 algorithm.

    Usable directly as an anonymous algorithm factory::

        run_anonymous(graph, RegularOddEDS)

    Feasibility (the output being an edge dominating set) is guaranteed
    for d-regular graphs with d odd; the program runs to completion on any
    graph, mirroring the model (a distributed algorithm cannot check
    global regularity), and the harness validates outputs externally.
    """

    __slots__ = ("selected", "covered")

    def __init__(self, degree: int) -> None:
        super().__init__(degree)
        #: ports of edges currently in D
        self.selected: set[int] = set()
        #: whether this node is covered by D
        self.covered = False

    # -- schedule ----------------------------------------------------------
    #
    # step t in [0, d^2)        : phase I,  pair #t
    # step t in [d^2, 2 d^2)    : phase II, pair #(t - d^2)
    # after the last step the node halts with its selected ports.

    def _phase_pair(self, step: int) -> tuple[int, tuple[int, int]] | None:
        d = self.degree
        if step < d * d:
            return (1, pair_at(step, d))
        if step < 2 * d * d:
            return (2, pair_at(step - d * d, d))
        return None

    def _active_port(self, phase: int, pair: tuple[int, int]) -> int | None:
        """My port participating in this pair step, if any."""
        port = self.port_for_pair.get(pair)
        if port is None:
            return None
        if phase == 2 and port not in self.selected:
            return None  # phase II only processes edges of D ∩ M(i, j)
        return port

    def algo_send(self, step: int) -> Mapping[int, Message]:
        located = self._phase_pair(step)
        if located is None:
            return {}
        phase, pair = located
        port = self._active_port(phase, pair)
        if port is None:
            return {}
        if phase == 1:
            # coverage bit: is this endpoint already covered by D?
            return {port: ("cov", self.covered)}
        # phase II: would this endpoint stay covered without this edge?
        stays_covered = bool(self.selected - {port})
        return {port: ("cov", stays_covered)}

    def algo_receive(self, step: int, inbox: Mapping[int, Message]) -> None:
        located = self._phase_pair(step)
        if located is not None:
            phase, pair = located
            port = self._active_port(phase, pair)
            if port is not None and port in inbox:
                _, peer_bit = inbox[port]
                if phase == 1:
                    self._phase1_decide(port, peer_bit)
                else:
                    self._phase2_decide(port, peer_bit)
        if step + 1 >= 2 * self.degree * self.degree:
            self.halt(self.selected)

    def _phase1_decide(self, port: int, peer_covered: bool) -> None:
        """Add the edge unless both endpoints are already covered."""
        if self.covered and peer_covered:
            return
        self.selected.add(port)
        self.covered = True

    def _phase2_decide(self, port: int, peer_stays: bool) -> None:
        """Remove the edge if both endpoints stay covered without it."""
        mine_stays = bool(self.selected - {port})
        if mine_stays and peer_stays:
            self.selected.discard(port)

    @staticmethod
    def total_rounds(d: int) -> int:
        """The exact number of rounds the program takes on d-regular input."""
        return 2 + 2 * d * d

    @classmethod
    def vector_program(cls, graph):
        """The vector engine's kernel for this algorithm."""
        from repro.algorithms.vector import VectorRegularOdd

        return VectorRegularOdd(graph)


# Registered where it is defined: work units reach this program by name.
from repro.registry.algorithms import register_anonymous  # noqa: E402

register_anonymous(
    "regular_odd",
    lambda graph: RegularOddEDS,
    description=(
        "Theorem 4: O(d^2) rounds, ratio 4 - 6/(d+1) on odd-d-regular "
        "graphs"
    ),
)
