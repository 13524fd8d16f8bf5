"""Vector-engine kernels for the paper's deterministic algorithms.

Each class is the all-nodes-at-once counterpart of one per-node program
from this package, plugged into the scheduler through the
:class:`~repro.runtime.vector.VectorProgram` protocol: per-node state is
typed numpy arrays, one round is a handful of whole-graph array ops, and
the step → participant schedules are precomputed entry arrays grouped by
step (memoised on the compiled graph under ``vector_*`` keys, so
repeated runs on one graph pay the derivation once).  The kernels are
**observationally identical** to the per-node programs: same outputs,
same round counts, and the same messages in the same order, which the
differential suite (``tests/test_runtime_compiled.py``) asserts across
the full graph-family matrix.

The Section 5 setup (Lemmas 1-2: each node's distinguishable edge and
the matchings M(i, j) it defines) is built in linear passes over the
ports.  A port's label {local, peer_local} can repeat at its node only
on the port numbered peer_local, so two gathers and a compare find the
distinguishable ports.  The pair-tag rows are one *own* row per node
with a distinguishable port and one *peer* row on that port's mate;
each row knows its *partner* row on the mate port, so schedule entries
link to their peers through the partner instead of a search.  One
argsort on the unique ``(step, node)`` key orders each schedule.

Fidelity rules the kernels follow:

* sends are emitted in ascending node order, and within a node in the
  iteration order of the per-node program's send mapping (which for
  every algorithm here is ascending port order — including proposal
  responses, whose accepted port is always the smallest pending);
* a kernel may *know* the graph (it is an execution strategy, not a
  model extension), so setup quantities the per-node programs learn by
  messaging — peer port numbers, peer degrees, distinguishable edges —
  are precomputed from the compiled involution, but the setup
  **messages themselves are still sent** so traces and message counts
  are unchanged;
* per-node schedule arithmetic (which depends only on degrees and the
  promised Δ) is mirrored exactly, so nodes halt in the same rounds
  even on graphs outside an algorithm's contract;
* **each node appears at most once per schedule step** (a pair step
  selects at most one port per node, proposal rounds carry one proposal
  per proposer and group replies per responder), so simultaneous array
  updates are equivalent to the per-node programs' sequential loops.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import pair_at
from repro.exceptions import AlgorithmContractError, SimulationError
from repro.portgraph.graph import PortNumberedGraph
from repro.runtime.vector import (
    PAYLOAD_ACC,
    PAYLOAD_ALIVE,
    PAYLOAD_COV,
    PAYLOAD_DN,
    PAYLOAD_HCOV,
    PAYLOAD_HELLO,
    PAYLOAD_ID,
    PAYLOAD_INT,
    PAYLOAD_MCOV,
    PAYLOAD_PROP,
    PAYLOAD_PROP_ID,
    PAYLOAD_REJ,
    PAYLOAD_SCOV,
    VectorProgram,
)

__all__ = [
    "VectorAllEdges",
    "VectorBoundedDegree",
    "VectorDoubleCover",
    "VectorGreedyMatchingIds",
    "VectorPortOne",
    "VectorRegularOdd",
    "require_max_degree",
]

_INF = (1 << 63) - 1


def require_max_degree(vg, max_degree: int) -> None:
    """The Δ contract: the compiled engine's error for the first node
    (in node order) whose degree exceeds *max_degree*."""
    over = np.flatnonzero(vg.degrees > max_degree)
    if len(over):
        raise AlgorithmContractError(
            f"node degree {int(vg.degrees[over[0]])} exceeds promised "
            f"bound Δ = {max_degree}"
        )


def _owned(vg, ks, flags):
    """*flags* restricted to the ports of nodes *ks* (a port mask)."""
    mine = np.zeros(vg.num_nodes, dtype=bool)
    mine[ks] = True
    return flags & mine[vg.port_node]


# -- Theorem 3 -------------------------------------------------------------


class VectorPortOne(VectorProgram):
    """Theorem 3, vectorised: one total broadcast, then every node halts.

    The selection is one boolean expression over the port axis.
    """

    __slots__ = ()

    def _step(self, rnd):
        vg = self.vg
        sends = vg.all_ports
        ok = self.deliver(rnd, sends)
        if self.record:
            self.log_sends(sends, PAYLOAD_INT, a=vg.local, delivered=ok)
        # Every node with a port halts now, so the mask is all theirs.
        self.halt_nodes(
            np.flatnonzero(self.running),
            (vg.local == 1) | (vg.peer_local == 1),
        )


class VectorAllEdges(VectorProgram):
    """A(1), vectorised: silence, then every node outputs all its ports."""

    __slots__ = ()

    def _step(self, rnd):
        vg = self.vg
        ks = np.flatnonzero(self.running)
        self.halt_nodes(ks, self.running[vg.port_node])


# -- shared Section 5 label machinery --------------------------------------


def _label_tables(vg):
    """Distinguishable ports and pair-tag rows, in linear passes.

    Returns ``(dn_port, tag_k, tag_i, tag_j, tag_g, partner)`` memoised
    as ``vector_label``.  ``dn_port[k]`` is the min-port
    uniquely-labelled edge of node ``k`` (−1 when none).  Row ``r`` is
    one entry of a per-node program's ``port_for_pair`` dict: node
    ``tag_k[r]`` maps pair ``(tag_i[r], tag_j[r])`` to global port
    ``tag_g[r]``.  The rows come unsorted: first one *own* row per node
    with a distinguishable port, in node order, then one *peer* row on
    the mate of each own row's port, with the same pair.  A mutual
    distinguishable edge whose ends carry one port number has its two
    own rows only, as the per-node programs' tag sets hold it once.
    ``partner[r]`` is the row with ``r``'s pair on the mate port, so the
    two ends of an ``M(i, j)`` edge link to each other without a search.
    The Lemma 2 violation check is the per-node programs'.
    """
    try:
        return vg.memo["vector_label"]
    except KeyError:
        pass
    local = vg.local
    peer_local = vg.peer_local
    degrees = vg.degrees

    # A port's edge label is the unordered pair {local, peer_local}.
    # Local numbers are distinct within a node, so the label can repeat
    # there only as the reversed pair, on the node's port numbered
    # peer_local: the port's twin, which exists when peer_local differs
    # from local and is at most the node's degree.
    twin = peer_local - local
    has_twin = (twin != 0) & (peer_local <= degrees[vg.port_node])
    twin += vg.all_ports
    twin *= has_twin  # ports without a twin read port 0, masked below
    repeated = has_twin & (peer_local[twin] == local)
    dn = vg.segment_min(np.where(repeated, _INF, local), _INF)
    dn_port = np.where(dn == _INF, -1, dn)

    # Own rows, in node order: the edge at a node's distinguishable port
    # g is tagged (i, j) = (local, peer_local) there, and by a peer row
    # with the same pair at mate(g) -- LabelAwareProgram's two sources.
    own_k = np.flatnonzero(dn_port >= 0)
    own_i = dn_port[own_k]
    own_g = vg.offsets[own_k] + own_i - 1
    own_j = peer_local[own_g]
    peer_g = vg.mate[own_g]
    peer_k = vg.peer_node[own_g]
    num_own = len(own_k)

    # Lemma 2: a node's rows can share a pair only as its own row (i, j)
    # and a peer row on its port numbered j, the distinguishable port's
    # twin, when that port's far end is numbered i and is its owner's
    # distinguishable port.
    twin = own_g + (own_j - own_i)
    clash = (own_i != own_j) & (own_j <= degrees[own_k])
    clash &= peer_local[np.where(clash, twin, 0)] == own_i
    at = np.flatnonzero(clash)
    at = at[dn_port[vg.peer_node[twin[at]]] == own_i[at]]
    if len(at):
        i, j = int(own_i[at[0]]), int(own_j[at[0]])
        raise SimulationError(
            f"Lemma 2 violated: pair {(i, j)} tags two incident edges "
            f"(ports {min(i, j)} and {max(i, j)})"
        )

    # A mutual distinguishable edge with one port number at both ends
    # is tagged (i, i) by two own rows; its peer rows would repeat them.
    mutual = np.flatnonzero(own_i == own_j)
    mutual = mutual[dn_port[peer_k[mutual]] == own_j[mutual]]
    kept = np.ones(num_own, dtype=bool)
    kept[mutual] = False
    kept = np.flatnonzero(kept)
    tag_k = np.concatenate([own_k, peer_k[kept]])
    tag_i = np.concatenate([own_i, own_i[kept]])
    tag_j = np.concatenate([own_j, own_j[kept]])
    tag_g = np.concatenate([own_g, peer_g[kept]])
    partner = np.empty(len(tag_k), dtype=np.int64)
    partner[num_own:] = kept
    partner[kept] = np.arange(num_own, len(tag_k))
    own_row = np.cumsum(dn_port >= 0) - 1  # node → its own row
    partner[mutual] = own_row[peer_k[mutual]]

    tables = (dn_port, tag_k, tag_i, tag_j, tag_g, partner)
    vg.memo["vector_label"] = tables
    return tables


def _entry_groups(vg, ent_step, ent_k):
    """Order schedule entries by ``(step, node)`` and group them by step.

    A node appears at most once per step, so ``step · n + node`` is a
    unique key and one argsort orders the entries.  Returns ``(order,
    steps, starts)``: the entry indices in that order, and each step
    with the start of its slice of them.
    """
    order = np.argsort(ent_step * vg.num_nodes + ent_k)
    counts = np.bincount(ent_step)
    steps = np.flatnonzero(counts)
    starts = np.zeros(len(steps) + 1, dtype=np.int64)
    np.cumsum(counts[steps], out=starts[1:])
    return order, steps, starts


def _positions(order):
    """The inverse permutation of *order*: each entry's sorted index."""
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    return position


def _step_slice(steps, starts, step):
    """The ``(s0, s1)`` slice of *step*'s entries, or ``None``."""
    at = int(np.searchsorted(steps, step))
    if at == len(steps) or steps[at] != step:
        return None
    return int(starts[at]), int(starts[at + 1])


class _VectorLabelAware(VectorProgram):
    """Shared Section 5 setup: precomputed labels, emitted setup rounds."""

    __slots__ = ("dn_port",)

    def __init__(self, graph: PortNumberedGraph) -> None:
        super().__init__(graph)
        self.dn_port = _label_tables(self.vg)[0]

    def _setup_step(self, rnd):
        """Rounds 0 and 1: the ``hello`` / ``dn`` total broadcasts."""
        vg = self.vg
        sends = vg.all_ports
        ok = self.deliver(rnd, sends)
        if self.record:
            if rnd == 0:
                self.log_sends(
                    sends,
                    PAYLOAD_HELLO,
                    a=vg.local,
                    b=vg.degrees[vg.port_node],
                    delivered=ok,
                )
            else:
                self.log_sends(
                    sends,
                    PAYLOAD_DN,
                    a=vg.local == self.dn_port[vg.port_node],
                    delivered=ok,
                )


# -- Theorem 4 -------------------------------------------------------------


def _regular_odd_schedule(vg):
    """The two-phase pair schedule as grouped entry arrays, memoised.

    A row's step depends on its own node's degree, so the two ends of a
    tagged edge meet at one step only when their degrees agree.  An
    entry's peer is whichever of the mate port's at most four entries
    (two rows × two phases) falls on the same step, or −1.
    """
    try:
        return vg.memo["vector_regular_odd"]
    except KeyError:
        pass
    dn_port, tag_k, tag_i, tag_j, tag_g, partner = _label_tables(vg)
    degrees = vg.degrees
    d = degrees[tag_k]
    # A pair can name a *peer* port number beyond this node's own
    # degree; the node's d-bounded schedule never reaches it.
    rows = np.flatnonzero((tag_i <= d) & (tag_j <= d))
    num = len(rows)
    row_step = (tag_i - 1) * d + (tag_j - 1)
    slot = np.full(len(tag_k), -1, dtype=np.int64)  # row → phase-1 entry
    slot[rows] = np.arange(num)
    ent_k = tag_k[rows]
    ent_g = tag_g[rows]
    ent_step = np.concatenate([row_step[rows], row_step[rows]])
    ent_step[num:] += d[rows] * d[rows]

    # At equal degrees an entry's peer is its partner row's entry in the
    # same phase: the mate port's other row has the reversed pair, which
    # falls on another step.  Where the degrees differ, any of the mate
    # port's entries may: those of the far node's own row when its
    # distinguishable port is the mate, and of the partner of this
    # node's own row when its distinguishable port is this one.
    mate = slot[partner[rows]]
    unsorted_peer = np.stack([mate, mate + num])
    unequal = np.flatnonzero(d[partner[rows]] != d[rows])
    own_row = np.cumsum(dn_port >= 0) - 1  # node → its own row
    k = ent_k[unequal]
    g = ent_g[unequal]
    far = vg.peer_node[g]
    far_square = degrees[far] * degrees[far]
    want = ent_step.reshape(2, num)[:, unequal]
    peer = np.full(want.shape, -1, dtype=np.int64)
    for row in (
        np.where(dn_port[far] == vg.peer_local[g], own_row[far], -1),
        np.where(dn_port[k] == vg.local[g], partner[own_row[k]], -1),
    ):
        entry = np.where(row >= 0, slot[row], -1)
        for phase in (0, 1):
            hit = (entry >= 0) & (want == row_step[row] + phase * far_square)
            np.copyto(peer, entry + phase * num, where=hit)
    unsorted_peer[:, unequal] = peer

    order, steps, starts = _entry_groups(
        vg, ent_step, np.concatenate([ent_k, ent_k])
    )
    ent_peer = unsorted_peer.ravel()[order]
    linked = ent_peer >= 0
    ent_peer[linked] = _positions(order)[ent_peer[linked]]
    ent_ph2 = order >= num
    order[ent_ph2] -= num  # the entry's row, as a phase-1 entry
    groups = (steps, starts, ent_k[order], ent_g[order], ent_peer, ent_ph2)

    halt_k = np.flatnonzero(degrees > 0)
    order, halt_steps, halt_starts = _entry_groups(
        vg, 2 * degrees[halt_k] * degrees[halt_k] - 1, halt_k
    )

    sched = groups + (halt_steps, halt_starts, halt_k[order])
    vg.memo["vector_regular_odd"] = sched
    return sched


class VectorRegularOdd(_VectorLabelAware):
    """Theorem 4, vectorised: masked pair steps over flat flag arrays.

    State: ``sel_flag`` (per-port membership in D), ``sel_count`` /
    ``covered`` (per-node).  A step's entries are one slice of the
    grouped schedule; peer bits come from the precomputed peer-entry
    index instead of an inbox.
    """

    __slots__ = ("_sched", "sel_flag", "sel_count", "covered")

    def __init__(self, graph: PortNumberedGraph) -> None:
        super().__init__(graph)
        self._sched = _regular_odd_schedule(self.vg)
        vg = self.vg
        self.sel_flag = np.zeros(vg.num_ports, dtype=bool)
        self.sel_count = np.zeros(vg.num_nodes, dtype=np.int64)
        self.covered = np.zeros(vg.num_nodes, dtype=bool)

    def _step(self, rnd):
        if rnd < 2:
            self._setup_step(rnd)
            return
        step = rnd - 2
        (steps, starts, ent_k, ent_g, ent_peer, ent_ph2,
         halt_steps, halt_starts, halt_k) = self._sched
        found = _step_slice(steps, starts, step)
        if found is not None:
            s0, s1 = found
            ks = ent_k[s0:s1]
            gs = ent_g[s0:s1]
            ph2 = ent_ph2[s0:s1]
            peer = ent_peer[s0:s1]
            run = self.running[ks]
            cov = self.covered[ks]
            sel = self.sel_flag[gs]
            count = self.sel_count[ks]
            # phase 1 sends its covered bit; phase 2 only for D-member
            # ports, the bit saying the endpoint survives removal.
            sending = run & (~ph2 | sel)
            bits = np.where(ph2, count > 1, cov)
            sends = gs[sending]
            ok = self.deliver(rnd, sends)
            if self.record:
                self.log_sends(
                    sends, PAYLOAD_COV, a=bits[sending], delivered=ok
                )
            # peer bits, via each entry's mate entry in the same step
            has_peer = peer >= 0
            rel = peer[has_peer] - s0
            got = np.zeros(s1 - s0, dtype=bool)
            got[has_peer] = sending[rel]
            peer_bits = np.zeros(s1 - s0, dtype=bool)
            peer_bits[has_peer] = bits[rel]
            eligible = run & got
            # phase 1: add unless both endpoints already covered
            add = eligible & ~ph2 & ~(cov & peer_bits)
            if add.any():
                add_g = gs[add]
                fresh = ~self.sel_flag[add_g]
                self.sel_flag[add_g[fresh]] = True
                self.sel_count[ks[add][fresh]] += 1
                self.covered[ks[add]] = True
            # phase 2: remove if both endpoints stay covered without it
            rem = eligible & ph2 & sel & (count > 1) & peer_bits
            if rem.any():
                self.sel_flag[gs[rem]] = False
                self.sel_count[ks[rem]] -= 1
        found = _step_slice(halt_steps, halt_starts, step)
        if found is not None:
            h0, h1 = found
            ks = halt_k[h0:h1]
            ks = ks[self.running[ks]]
            if len(ks):
                self.halt_nodes(ks, _owned(self.vg, ks, self.sel_flag))


# -- Theorem 5 -------------------------------------------------------------


def _bounded_schedule(vg, delta):
    """Phase lookup table + grouped phase-I entries for Δ' = *delta*."""
    try:
        return vg.memo["vector_bounded", delta]
    except KeyError:
        pass
    # step → ("I", pair) | ("II", stage, local) | ("III", local),
    # identical to the per-node schedule (a function of Δ' alone).
    schedule: list[tuple] = []
    for step in range(delta * delta):
        schedule.append(("I", pair_at(step, delta)))
    for stage in range(2, delta + 1):
        for local in range(1 + 2 * stage):
            schedule.append(("II", stage, local))
    for local in range(1 + 2 * delta):
        schedule.append(("III", local))

    _, tag_k, tag_i, tag_j, tag_g, partner = _label_tables(vg)
    order, steps, starts = _entry_groups(
        vg, (tag_i - 1) * delta + (tag_j - 1), tag_k
    )
    # Both ends of a tagged edge schedule its pair at the same step, so
    # an entry's peer is its partner row's entry.
    groups = (
        steps, starts, tag_k[order], tag_g[order],
        _positions(order)[partner[order]],
    )
    memoed = (tuple(schedule), groups)
    vg.memo["vector_bounded", delta] = memoed
    return memoed


class VectorBoundedDegree(_VectorLabelAware):
    """Theorem 5's A(Δ'), vectorised (Δ' odd and ≥ 3).

    Phase I is the grouped pair schedule; phases II/III keep the
    proposal queues as one flat CSR array (``queue_flat`` with per-node
    ``cursor``/``queue_end``) rebuilt at each stage kickoff, so propose
    rounds are a gather and respond rounds a sort + first-occurrence
    mask.  ``m_port``/``m_cov`` track the matching, ``p_flag`` the
    phase III h-edges.
    """

    __slots__ = (
        "delta",
        "schedule",
        "total_steps",
        "_pairs",
        "m_port",
        "m_cov",
        "p_flag",
        "white_eligible",
        "stage_accepted",
        "out_done",
        "accepted_in",
        "queue_flat",
        "queue_end",
        "cursor",
        "proposers",
        "_phase3",
        "_pending",
    )

    def __init__(
        self, graph: PortNumberedGraph, max_degree: int, odd_delta: int
    ) -> None:
        require_max_degree(graph.compiled().vector(), max_degree)
        super().__init__(graph)
        self.delta = odd_delta
        self.schedule, self._pairs = _bounded_schedule(self.vg, odd_delta)
        self.total_steps = len(self.schedule)
        vg = self.vg
        n = vg.num_nodes
        self.m_port = np.full(n, -1, dtype=np.int64)
        self.m_cov = np.zeros(n, dtype=bool)
        self.p_flag = np.zeros(vg.num_ports, dtype=bool)
        self.white_eligible = np.zeros(n, dtype=bool)
        self.stage_accepted = np.zeros(n, dtype=bool)
        self.out_done = np.zeros(n, dtype=bool)
        self.accepted_in = np.zeros(n, dtype=bool)
        self.queue_flat = np.zeros(0, dtype=np.int64)
        self.queue_end = np.zeros(n, dtype=np.int64)
        self.cursor = np.zeros(n, dtype=np.int64)
        self.proposers = np.zeros(0, dtype=np.int64)
        self._phase3 = False
        self._pending = None

    def _step(self, rnd):
        if rnd < 2:
            self._setup_step(rnd)
            return
        step = rnd - 2
        located = self.schedule[step]
        kind = located[0]
        if kind == "I":
            self._pair_step(rnd, step)
        else:
            local = located[2] if kind == "II" else located[1]
            if local == 0:
                self._kickoff(rnd, located)
            elif (local - 1) % 2 == 0:
                self._propose(rnd)
            else:
                self._respond(rnd)
        if step + 1 >= self.total_steps:
            ks = np.flatnonzero(self.running)
            if len(ks):
                vg = self.vg
                ports = _owned(vg, ks, self.p_flag)
                matched = ks[self.m_port[ks] >= 0]
                ports[vg.offsets[matched] + self.m_port[matched] - 1] = True
                self.halt_nodes(ks, ports)

    def _pair_step(self, rnd, step):
        """Phase I: greedy maximal matching on the M(i, j) edge class."""
        steps, starts, ent_k, ent_g, ent_peer = self._pairs
        found = _step_slice(steps, starts, step)
        if found is None:
            return
        s0, s1 = found
        ks = ent_k[s0:s1]
        gs = ent_g[s0:s1]
        peer = ent_peer[s0:s1]
        cov = self.m_cov[ks]
        ok = self.deliver(rnd, gs)
        if self.record:
            self.log_sends(gs, PAYLOAD_MCOV, a=cov, delivered=ok)
        # Both tagged endpoints of a pair schedule the same step, so
        # every entry's peer slot resolves while any node runs.
        has_peer = peer >= 0
        got = np.zeros(s1 - s0, dtype=bool)
        got[has_peer] = True
        peer_bits = np.zeros(s1 - s0, dtype=bool)
        peer_bits[has_peer] = cov[peer[has_peer] - s0]
        # add to M iff *neither* endpoint is covered (§7 phase I)
        update = got & ~cov & ~peer_bits
        if update.any():
            self.m_port[ks[update]] = self.vg.local[gs[update]]
            self.m_cov[ks[update]] = True

    def _kickoff(self, rnd, located):
        """Stage / phase III boundary: total status broadcast + reset."""
        vg = self.vg
        sends = vg.all_ports
        ok = self.deliver(rnd, sends)
        if self.record:
            code = PAYLOAD_SCOV if located[0] == "II" else PAYLOAD_HCOV
            self.log_sends(
                sends, code, a=self.m_cov[vg.port_node], delivered=ok
            )
        if located[0] == "II":
            self._start_stage(located[1])
        else:
            self._start_h()

    def _set_queues(self, queued):
        """Rebuild the flat proposal queues from ascending global ports."""
        vg = self.vg
        counts = np.bincount(
            vg.port_node[queued], minlength=vg.num_nodes
        )
        self.queue_flat = queued
        self.queue_end = np.cumsum(counts)
        self.cursor = self.queue_end - counts
        self.proposers = np.flatnonzero(counts)

    def _start_stage(self, stage):
        """Stage setup: white/black roles from the scov bits.

        Black (uncovered, degree == stage) nodes queue their ports
        towards uncovered smaller-degree neighbours; whites (uncovered,
        degree < stage) are eligible acceptors.  A black node's ports
        are ``offsets[k] + 0 … stage − 1``, so the queues are read off
        the black nodes alone.
        """
        vg = self.vg
        degrees = vg.degrees
        uncovered = ~self.m_cov
        self._phase3 = False
        self.white_eligible = uncovered & (degrees < stage)
        self.stage_accepted[:] = False
        black = np.flatnonzero(uncovered & (degrees == stage))
        ports = (vg.offsets[black, None] + np.arange(stage)).ravel()
        far = vg.peer_node[ports]
        self._set_queues(ports[(degrees[far] < stage) & uncovered[far]])

    def _start_h(self):
        """Phase III setup: every uncovered node proposes along its
        uncovered neighbours; acceptance state starts clean.  The
        queues are read off the uncovered nodes' own ports, which run
        ``offsets[k] … offsets[k + 1] − 1`` and so come out ascending."""
        vg = self.vg
        uncovered = ~self.m_cov
        self._phase3 = True
        self.accepted_in[:] = False
        nodes = np.flatnonzero(uncovered)
        degrees = vg.degrees[nodes]
        before = np.cumsum(degrees) - degrees
        ports = np.arange(int(degrees.sum())) + np.repeat(
            vg.offsets[nodes] - before, degrees
        )
        self._set_queues(ports[uncovered[vg.peer_node[ports]]])
        self.out_done = self.cursor >= self.queue_end

    def _propose(self, rnd):
        props = self.proposers
        if self._phase3:
            live = ~self.out_done[props]
        else:
            live = ~self.stage_accepted[props]
        live &= self.cursor[props] < self.queue_end[props]
        active = props[live]
        sends = self.queue_flat[self.cursor[active]]
        ok = self.deliver(rnd, sends)
        if self.record:
            self.log_sends(sends, PAYLOAD_PROP, delivered=ok)
        self._pending = sends if ok is None else sends[ok]

    def _respond(self, rnd):
        """Group pending proposals per responder; the smallest pending
        port wins when the responder is eligible to accept."""
        vg = self.vg
        src = self._pending
        self._pending = None
        targets = vg.mate[src]
        order = np.argsort(targets)
        tgs = targets[order]
        tks = vg.port_node[tgs]
        first = np.ones(len(tgs), dtype=bool)
        first[1:] = tks[1:] != tks[:-1]
        if self._phase3:
            eligible = ~self.accepted_in[tks]
        else:
            eligible = self.white_eligible[tks] & (self.m_port[tks] < 0)
        acc = first & eligible
        ok = self.deliver(rnd, tgs)
        if self.record:
            codes = np.where(acc, PAYLOAD_ACC, PAYLOAD_REJ)
            self.log_sends(tgs, codes, delivered=ok)
        # responder-side state (the per-node program updates at send time)
        winners = tgs[acc]
        acceptors = tks[acc]
        if self._phase3:
            self.p_flag[winners] = True
            self.accepted_in[acceptors] = True
        else:
            self.m_port[acceptors] = vg.local[winners]
            self.m_cov[acceptors] = True
            self.stage_accepted[acceptors] = True
        # proposer-side state (updates on reply delivery)
        delivered = ok if ok is not None else np.ones(len(tgs), dtype=bool)
        sorted_src = src[order]
        acc_src = sorted_src[acc & delivered]
        acc_prop = vg.port_node[acc_src]
        if self._phase3:
            self.p_flag[acc_src] = True
            self.out_done[acc_prop] = True
        else:
            self.m_port[acc_prop] = vg.local[acc_src]
            self.m_cov[acc_prop] = True
            self.stage_accepted[acc_prop] = True
        rej_prop = vg.port_node[sorted_src[~acc & delivered]]
        self.cursor[rej_prop] += 1
        if self._phase3:
            self.out_done[rej_prop] |= (
                self.cursor[rej_prop] >= self.queue_end[rej_prop]
            )


# -- [21] double cover -----------------------------------------------------


class VectorDoubleCover(VectorProgram):
    """The [21] double-cover proposal protocol, vectorised."""

    __slots__ = ("delta", "cursor", "out_done", "accepted_in", "p_flag",
                 "_pending")

    def __init__(self, graph: PortNumberedGraph, max_degree: int) -> None:
        require_max_degree(graph.compiled().vector(), max_degree)
        super().__init__(graph)
        self.delta = max_degree
        vg = self.vg
        n = vg.num_nodes
        self.cursor = np.zeros(n, dtype=np.int64)  # 0-based propose index
        self.out_done = vg.degrees == 0
        self.accepted_in = np.zeros(n, dtype=bool)
        self.p_flag = np.zeros(vg.num_ports, dtype=bool)
        self._pending = None

    def _step(self, rnd):
        vg = self.vg
        if rnd % 2 == 0:
            # propose sub-round
            active = np.flatnonzero(
                self.running & ~self.out_done & (self.cursor < vg.degrees)
            )
            sends = vg.offsets[active] + self.cursor[active]
            ok = self.deliver(rnd, sends)
            if self.record:
                self.log_sends(sends, PAYLOAD_PROP, delivered=ok)
            self._pending = sends if ok is None else sends[ok]
        else:
            # respond sub-round: smallest pending port wins per node
            src = self._pending
            self._pending = None
            targets = vg.mate[src]
            order = np.argsort(targets)
            tgs = targets[order]
            tks = vg.port_node[tgs]
            first = np.ones(len(tgs), dtype=bool)
            first[1:] = tks[1:] != tks[:-1]
            acc = first & ~self.accepted_in[tks]
            ok = self.deliver(rnd, tgs)
            if self.record:
                codes = np.where(acc, PAYLOAD_ACC, PAYLOAD_REJ)
                self.log_sends(tgs, codes, delivered=ok)
            self.p_flag[tgs[acc]] = True
            self.accepted_in[tks[acc]] = True
            delivered = (
                ok if ok is not None else np.ones(len(tgs), dtype=bool)
            )
            sorted_src = src[order]
            acc_src = sorted_src[acc & delivered]
            acc_prop = vg.port_node[acc_src]
            self.p_flag[acc_src] = True
            self.out_done[acc_prop] = True
            rej_prop = vg.port_node[sorted_src[~acc & delivered]]
            self.cursor[rej_prop] += 1
            self.out_done[rej_prop] |= (
                self.cursor[rej_prop] >= vg.degrees[rej_prop]
            )
        if rnd + 1 >= 2 * self.delta:
            ks = np.flatnonzero(self.running)
            if len(ks):
                self.halt_nodes(ks, _owned(vg, ks, self.p_flag))


# -- identified-model greedy matching --------------------------------------


class VectorGreedyMatchingIds(VectorProgram):
    """The identified-model greedy maximal matching, vectorised.

    Nodes halt as soon as they are matched or exhausted, so this kernel
    genuinely exercises the drop accounting of :meth:`deliver`.  Raises
    :class:`OverflowError` when an identifier does not fit int64 — the
    factory hook turns that into a compiled-engine fallback.
    """

    __slots__ = ("uid", "nid", "proposed", "accepted", "_pending")

    def __init__(self, graph: PortNumberedGraph, ids) -> None:
        super().__init__(graph)
        cg = self.cg
        # OverflowError here (id beyond int64) aborts vectorisation.
        self.uid = np.array([ids[v] for v in cg.nodes], dtype=np.int64)
        vg = self.vg
        self.nid = (
            self.uid[vg.peer_node]
            if vg.num_nodes
            else np.zeros(0, dtype=np.int64)
        )
        n = vg.num_nodes
        self.proposed = np.full(n, -1, dtype=np.int64)  # gport or -1
        self.accepted = np.full(n, -1, dtype=np.int64)  # local port or -1
        self._pending = None

    def _step(self, rnd):
        vg = self.vg
        running = self.running
        if rnd == 0:
            sends = vg.all_ports  # id exchange: nobody halted yet
            ok = self.deliver(rnd, sends)
            if self.record:
                self.log_sends(
                    sends,
                    PAYLOAD_ID,
                    a=self.uid[vg.port_node],
                    delivered=ok,
                )
            return
        phase = (rnd - 1) % 3
        if phase == 0:
            # status broadcast; running nodes keep addressing halted
            # neighbours, so this is where sends drop.
            sends = np.flatnonzero(running[vg.port_node])
            ok = self.deliver(rnd, sends)
            if self.record:
                self.log_sends(sends, PAYLOAD_ALIVE, delivered=ok)
            # a port hears "alive" iff its peer's owner is running
            alive = running[vg.peer_node]
            key = np.where(alive, self.nid, _INF)
            min_id = vg.segment_min(key, _INF)
            has_alive = vg.segment_min(
                np.where(alive, 0, 1).astype(np.int64), 1
            ) == 0
            finished = running & ~has_alive
            candidates = np.where(
                alive & (self.nid == min_id[vg.port_node]),
                vg.all_ports,
                _INF,
            )
            best = vg.segment_min(candidates, _INF)
            proposers = running & has_alive & (min_id < self.uid)
            self.proposed[:] = -1
            self.proposed[proposers] = best[proposers]
            self.accepted[:] = -1
            done = np.flatnonzero(finished)
            if len(done):
                self.halt_nodes(done)
        elif phase == 1:
            sources = np.flatnonzero(self.proposed >= 0)
            sends = self.proposed[sources]
            ok = self.deliver(rnd, sends)
            if self.record:
                self.log_sends(
                    sends, PAYLOAD_PROP_ID, a=self.uid[sources], delivered=ok
                )
            self._pending = sends if ok is None else sends[ok]
        else:
            src = self._pending
            self._pending = None
            targets = vg.mate[src]
            responders = vg.port_node[targets]
            proposer_uid = self.uid[vg.port_node[src]]
            # replies per responder, proposals ordered by (uid, port)
            order = np.lexsort(
                (vg.local[targets], proposer_uid, responders)
            )
            tgs = targets[order]
            tks = responders[order]
            first = np.ones(len(tgs), dtype=bool)
            first[1:] = tks[1:] != tks[:-1]
            acc = first & (self.proposed[tks] < 0)
            ok = self.deliver(rnd, tgs)
            if self.record:
                codes = np.where(acc, PAYLOAD_ACC, PAYLOAD_REJ)
                self.log_sends(tgs, codes, delivered=ok)
            winners = tgs[acc]
            acceptors = tks[acc]
            self.accepted[acceptors] = vg.local[winners]
            delivered = (
                ok if ok is not None else np.ones(len(tgs), dtype=bool)
            )
            sorted_src = src[order]
            matched_src = sorted_src[acc & delivered]
            matched = vg.port_node[matched_src]
            # each newly matched node outputs its matching port
            halting = np.sort(np.concatenate([acceptors, matched]))
            if len(halting):
                self.halt_nodes(
                    halting, np.concatenate([winners, matched_src])
                )
            self.proposed[:] = -1
