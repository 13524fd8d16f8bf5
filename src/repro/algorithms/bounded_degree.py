"""Theorem 5: the family A(Δ) for graphs of maximum degree Δ.

The paper's Section 7 algorithm achieves the tight ratio ``4 - 1/k``
(``k = floor(Δ/2)``) on every graph of maximum degree Δ, in O(Δ²) rounds.
For even Δ it simply runs A(Δ + 1); for Δ = 1 the optimum is the full
edge set.  For odd Δ = 2k + 1 ≥ 3 it builds two node-disjoint edge sets —
a matching ``M`` and a 2-matching ``P`` — and outputs ``D = M ∪ P``:

* **Phase I** (steps 0 .. Δ²-1) — for each pair ``(i, j)`` sequentially,
  process the edges of ``M(i, j)`` in parallel: add an edge to ``M`` iff
  *neither* endpoint is covered by ``M`` (unlike Theorem 4's phase I,
  which builds an edge cover, this builds a matching).  Afterwards, every
  odd-degree node is covered by ``M`` or adjacent to an ``M``-node
  (property (b) of §7.3).

* **Phase II** — for each degree class ``i = 2 .. Δ`` sequentially, let
  ``B_i`` be the edges ``{u, v}`` with ``deg(u) < deg(v) = i`` and both
  endpoints ``M``-uncovered.  The subgraph is bipartite (black = degree
  exactly ``i``, white = smaller degree); a maximal matching ``M_i`` is
  found by the proposal protocol of Hańćkowiak et al. [13]: black nodes
  propose along their white ports in increasing port order, whites accept
  the first proposal (ties by smaller port).  ``M <- M ∪ M_i``.  This
  guarantees property (c): surviving uncovered edges join equal-degree
  nodes.

* **Phase III** — on the subgraph ``H`` of edges with both endpoints
  ``M``-uncovered, find a 2-matching ``P`` dominating every edge of ``H``
  using the bipartite-double-cover proposal protocol of Polishchuk and
  Suomela [21]: every node simultaneously plays a proposer copy (proposes
  along its ``H``-ports in increasing order until accepted or exhausted)
  and an acceptor copy (accepts the first proposal ever received, ties by
  smaller port).  Each node ends with at most one accepted outgoing and
  one accepted incoming edge, so ``P`` is a 2-matching, and every ``H``
  edge is dominated (§7.2).

The global round schedule is a function of Δ alone, so all nodes halt
simultaneously after ``2Δ'² + 4Δ'`` rounds with ``Δ' = Δ`` rounded up to
odd — the paper's O(Δ²), independent of the graph size.
"""

from __future__ import annotations

from typing import Mapping

from repro.algorithms.base import LabelAwareProgram, pair_at
from repro.exceptions import AlgorithmContractError
from repro.runtime.algorithm import Message, NodeProgram

__all__ = ["BoundedDegreeEDS", "run_bounded_with_split"]


def run_bounded_with_split(graph, max_degree: int):
    """Run A(Δ) and return ``(run_result, M, P)``.

    The public output of the algorithm is the undifferentiated union
    ``D = M ∪ P``; the Section 7 analysis (and the Figure 9 reproduction)
    needs the split, which this helper extracts from the node programs'
    final states.
    """
    from repro.runtime.scheduler import _execute

    factory = BoundedDegreeEDS(max_degree)
    programs = {}
    for v in graph.nodes:
        prog = factory(graph.degree(v))
        if graph.degree(v) == 0 and not prog.halted:
            prog.halt(frozenset())
        programs[v] = prog
    result = _execute(graph, programs, 1_000_000, False)

    m_edges = set()
    p_edges = set()
    for v in graph.nodes:
        prog = programs[v]
        m_port = getattr(prog, "m_port", None)
        if m_port is not None:
            m_edges.add(graph.edge_at(v, m_port))
        for port in getattr(prog, "p_ports", ()):
            p_edges.add(graph.edge_at(v, port))
    return result, frozenset(m_edges), frozenset(p_edges)


class BoundedDegreeEDS:
    """Factory for the Theorem 5 family A(Δ).

    Instances are anonymous algorithm factories::

        run_anonymous(graph, BoundedDegreeEDS(max_degree=5))

    Parameters
    ----------
    max_degree:
        The promised bound Δ >= 1 on every node degree.  The guarantee is
        the Table 1 ratio ``bounded_degree_ratio(Δ)``; feeding a graph
        with a larger degree raises :class:`AlgorithmContractError` at
        program construction time.
    """

    def __init__(self, max_degree: int) -> None:
        if max_degree < 1:
            raise AlgorithmContractError(
                f"max_degree must be >= 1, got {max_degree}"
            )
        self.max_degree = max_degree
        #: the odd parameter Δ' actually used (A(2k) = A(2k + 1))
        self.odd_delta = max_degree + (1 if max_degree % 2 == 0 else 0)

    def __call__(self, degree: int) -> NodeProgram:
        if degree > self.max_degree:
            raise AlgorithmContractError(
                f"node degree {degree} exceeds promised bound "
                f"Δ = {self.max_degree}"
            )
        if self.max_degree == 1:
            return _AllEdgesProgram(degree)
        return _BoundedDegreeProgram(degree, self.odd_delta)

    def total_rounds(self) -> int:
        """The exact round count of every node program (A(1): 1 round)."""
        if self.max_degree == 1:
            return 1
        d = self.odd_delta
        return 2 * d * d + 4 * d

    def vector_program(self, graph):
        """The vector engine's kernel for this algorithm."""
        from repro.algorithms.vector import (
            VectorAllEdges,
            VectorBoundedDegree,
            require_max_degree,
        )

        if self.max_degree == 1:
            require_max_degree(graph.compiled().vector(), 1)
            return VectorAllEdges(graph)
        return VectorBoundedDegree(graph, self.max_degree, self.odd_delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoundedDegreeEDS(max_degree={self.max_degree})"


class _AllEdgesProgram(NodeProgram):
    """A(1): in a graph of maximum degree 1 the full edge set is optimal."""

    def send(self, rnd: int) -> Mapping[int, Message]:
        return {}

    def receive(self, rnd: int, inbox: Mapping[int, Message]) -> None:
        self.halt(set(range(1, self.degree + 1)))


class _BoundedDegreeProgram(LabelAwareProgram):
    """One node's state machine for A(Δ') with Δ' odd and >= 3."""

    __slots__ = (
        "delta",
        "m_port",
        "p_ports",
        "stage_queue",
        "stage_index",
        "stage_white_eligible",
        "stage_accepted",
        "pending_proposals",
        "h_queue",
        "h_index",
        "h_out_done",
        "h_accepted_in",
    )

    def __init__(self, degree: int, odd_delta: int) -> None:
        super().__init__(degree)
        self.delta = odd_delta
        #: the port of my matching edge, or None (M is a matching)
        self.m_port: int | None = None
        #: ports of my 2-matching edges (at most two)
        self.p_ports: set[int] = set()
        # phase II per-stage state
        self.stage_queue: list[int] = []
        self.stage_index = 0
        self.stage_white_eligible = False
        self.stage_accepted = False
        self.pending_proposals: list[int] = []
        # phase III state
        self.h_queue: list[int] = []
        self.h_index = 0
        self.h_out_done = False
        self.h_accepted_in = False

    # -- properties --------------------------------------------------------

    @property
    def m_covered(self) -> bool:
        return self.m_port is not None

    # -- the global schedule ------------------------------------------------
    #
    # (all step counts are after the 2 setup rounds of LabelAwareProgram)
    # phase I        : steps [0, D²) with D = Δ'           -- pair steps
    # phase II stage i (i = 2..D): window of 1 + 2i steps  -- proposals
    # phase III      : window of 1 + 2D steps              -- double cover
    # halt after the last phase III step.

    def _phase1_length(self) -> int:
        return self.delta * self.delta

    def _stage_offset(self, i: int) -> int:
        """First step of phase II stage *i* (valid for 2 <= i <= D + 1)."""
        off = self._phase1_length()
        for stage in range(2, i):
            off += 1 + 2 * stage
        return off

    def _phase3_offset(self) -> int:
        return self._stage_offset(self.delta + 1)

    def _total_steps(self) -> int:
        return self._phase3_offset() + 1 + 2 * self.delta

    def _locate(self, step: int):
        """Map a step to ('I', pair) | ('II', stage, local) | ('III', local)."""
        if step < self._phase1_length():
            return ("I", pair_at(step, self.delta))
        p3 = self._phase3_offset()
        if step < p3:
            offset = self._phase1_length()
            for stage in range(2, self.delta + 1):
                window = 1 + 2 * stage
                if step < offset + window:
                    return ("II", stage, step - offset)
                offset += window
            raise AssertionError("unreachable: schedule arithmetic")
        return ("III", step - p3)

    # -- sending -------------------------------------------------------------

    def algo_send(self, step: int) -> Mapping[int, Message]:
        located = self._locate(step)
        if located[0] == "I":
            return self._send_phase1(located[1])
        if located[0] == "II":
            return self._send_phase2(located[1], located[2])
        return self._send_phase3(located[1])

    def _send_phase1(self, pair: tuple[int, int]) -> Mapping[int, Message]:
        port = self.port_for_pair.get(pair)
        if port is None:
            return {}
        return {port: ("mcov", self.m_covered)}

    def _send_phase2(self, stage: int, local: int) -> Mapping[int, Message]:
        if local == 0:
            # stage setup: broadcast M-coverage
            return {
                i: ("scov", self.m_covered)
                for i in range(1, self.degree + 1)
            }
        r = local - 1
        if r % 2 == 0:
            # propose sub-round (black role)
            if (
                self.stage_queue
                and not self.stage_accepted
                and self.stage_index < len(self.stage_queue)
            ):
                return {self.stage_queue[self.stage_index]: ("prop",)}
            return {}
        # respond sub-round (white role)
        return self._respond_to_proposals(
            eligible=self.stage_white_eligible and not self.m_covered,
            phase3=False,
        )

    def _send_phase3(self, local: int) -> Mapping[int, Message]:
        if local == 0:
            return {
                i: ("hcov", self.m_covered)
                for i in range(1, self.degree + 1)
            }
        r = local - 1
        if r % 2 == 0:
            if not self.h_out_done and self.h_index < len(self.h_queue):
                return {self.h_queue[self.h_index]: ("prop",)}
            return {}
        return self._respond_to_proposals(
            eligible=not self.h_accepted_in, phase3=True
        )

    def _respond_to_proposals(
        self, eligible: bool, phase3: bool
    ) -> dict[int, Message]:
        """Accept the smallest-port pending proposal when *eligible*."""
        if not self.pending_proposals:
            return {}
        replies: dict[int, Message] = {}
        proposals = sorted(self.pending_proposals)
        self.pending_proposals = []
        if eligible:
            winner = proposals[0]
            replies[winner] = ("acc",)
            for port in proposals[1:]:
                replies[port] = ("rej",)
            self._record_acceptance(winner, phase3)
        else:
            for port in proposals:
                replies[port] = ("rej",)
        return replies

    def _record_acceptance(self, port: int, phase3: bool) -> None:
        """Book-keeping when this node accepts an incoming proposal."""
        if phase3:
            self.p_ports.add(port)
            self.h_accepted_in = True
        else:
            self.m_port = port
            self.stage_accepted = True

    # -- receiving -------------------------------------------------------------

    def algo_receive(self, step: int, inbox: Mapping[int, Message]) -> None:
        located = self._locate(step)
        if located[0] == "I":
            self._receive_phase1(located[1], inbox)
        elif located[0] == "II":
            self._receive_phase2(located[1], located[2], inbox)
        else:
            self._receive_phase3(located[1], inbox)
        if step + 1 >= self._total_steps():
            output = set(self.p_ports)
            if self.m_port is not None:
                output.add(self.m_port)
            self.halt(output)

    def _receive_phase1(
        self, pair: tuple[int, int], inbox: Mapping[int, Message]
    ) -> None:
        port = self.port_for_pair.get(pair)
        if port is None or port not in inbox:
            return
        _, peer_covered = inbox[port]
        # add to M iff *neither* endpoint is covered (Section 7 phase I)
        if not self.m_covered and not peer_covered:
            self.m_port = port

    def _receive_phase2(
        self, stage: int, local: int, inbox: Mapping[int, Message]
    ) -> None:
        if local == 0:
            self._start_stage(stage, inbox)
            return
        r = local - 1
        if r % 2 == 0:
            # proposals land on whites
            self.pending_proposals = [
                i for i, msg in inbox.items() if msg == ("prop",)
            ]
        else:
            # responses land on blacks
            self._read_response(inbox, phase3=False)

    def _start_stage(self, stage: int, inbox: Mapping[int, Message]) -> None:
        peer_covered = {
            i: msg[1] for i, msg in inbox.items() if msg[0] == "scov"
        }
        self.pending_proposals = []
        self.stage_accepted = False
        self.stage_index = 0
        self.stage_queue = []
        # white role: eligible to accept iff uncovered and degree < stage
        self.stage_white_eligible = (
            not self.m_covered and self.degree < stage
        )
        # black role: uncovered nodes of degree exactly `stage` propose to
        # uncovered smaller-degree neighbours, in increasing port order
        if not self.m_covered and self.degree == stage:
            self.stage_queue = [
                i
                for i in range(1, self.degree + 1)
                if self.peer_degree[i] < stage and not peer_covered.get(i, True)
            ]

    def _receive_phase3(self, local: int, inbox: Mapping[int, Message]) -> None:
        if local == 0:
            peer_covered = {
                i: msg[1] for i, msg in inbox.items() if msg[0] == "hcov"
            }
            self.pending_proposals = []
            self.h_accepted_in = False
            self.h_index = 0
            self.h_out_done = self.m_covered
            self.h_queue = []
            if not self.m_covered:
                self.h_queue = [
                    i
                    for i in range(1, self.degree + 1)
                    if not peer_covered.get(i, True)
                ]
                if not self.h_queue:
                    self.h_out_done = True
            return
        r = local - 1
        if r % 2 == 0:
            self.pending_proposals = [
                i for i, msg in inbox.items() if msg == ("prop",)
            ]
        else:
            self._read_response(inbox, phase3=True)

    def _read_response(
        self, inbox: Mapping[int, Message], phase3: bool
    ) -> None:
        """Proposer side: learn whether the pending proposal was accepted."""
        if phase3:
            if self.h_out_done or self.h_index >= len(self.h_queue):
                return
            port = self.h_queue[self.h_index]
            reply = inbox.get(port)
            if reply == ("acc",):
                self.p_ports.add(port)
                self.h_out_done = True
            elif reply == ("rej",):
                self.h_index += 1
                if self.h_index >= len(self.h_queue):
                    self.h_out_done = True
            return
        if self.stage_accepted or self.stage_index >= len(self.stage_queue):
            return
        port = self.stage_queue[self.stage_index]
        reply = inbox.get(port)
        if reply == ("acc",):
            self.m_port = port
            self.stage_accepted = True
        elif reply == ("rej",):
            self.stage_index += 1


# Registered where it is defined: work units reach this program by name.
# ``delta`` is the optional explicit degree promise (the inflated-Δ
# ablation uses it); without it the promise defaults to the graph's own
# maximum degree, matching the historical harness behaviour.
from repro.registry.algorithms import register_anonymous  # noqa: E402


def _bounded_degree_factory(graph, delta=None):
    promise = delta if delta is not None else max(graph.max_degree, 1)
    return BoundedDegreeEDS(promise)


register_anonymous(
    "bounded_degree",
    _bounded_degree_factory,
    params=("delta",),
    description=(
        "Theorem 5 family A(Δ): O(Δ^2) rounds, ratio 4 - 1/⌊Δ/2⌋ under "
        "a max-degree promise"
    ),
)
