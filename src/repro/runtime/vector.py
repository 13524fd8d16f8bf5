"""The vector execution engine: whole-graph rounds as numpy array ops.

The compiled engine pays ``2·n`` method dispatches per round (one
``send`` and one ``receive`` per running node) plus a mapping per inbox.
A :class:`VectorProgram` advances **all** nodes in one
:meth:`~VectorProgram.step_all` call per round with no Python loop over
nodes: per-node state lives in typed numpy arrays (struct-of-arrays),
messages are gathered through the flat involution with one fancy-index,
and each round is a handful of whole-graph array operations over a
:class:`~repro.portgraph.vector.VectorGraph`.

Opting in: an algorithm factory exposes ``vector_program(graph)``
(anonymous model) or ``vector_program(graph, ids)`` (identified model)
returning a :class:`VectorProgram`, or ``None`` to run on the compiled
loop instead.  Observational identity is the contract: same outputs,
same round counts, and the same messages in the same canonical order
(ascending node index, then the per-node program's send-mapping order)
as the compiled engine — the differential suite holds every vector
kernel to that.

Tracing is *lazy*: the hot loop never allocates message objects.  When
a trace is requested, each round appends compact **slabs** — the send
gports plus a payload code and up to two int columns — and
:meth:`VectorProgram.materialise_log` expands them into the flat
``(source, target, payload, dropped)`` log after the run, feeding the
same :func:`~repro.runtime.trace.trace_from_log` path as the compiled
engine.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import SimulationError
from repro.portgraph.graph import PortNumberedGraph

__all__ = ["VectorProgram", "PAYLOADS"]


# -- payload codec ---------------------------------------------------------
#
# Message payloads of the built-in algorithms are small tagged tuples (or
# plain ints); inside the round loop they are stored as an integer code
# plus up to two int64 columns and only decoded when a trace is
# materialised.

PAYLOAD_INT = 0  # column a          -> a              (port_one)
PAYLOAD_HELLO = 1  # columns a, b    -> ("hello", a, b)
PAYLOAD_DN = 2  # column a (0/1)     -> ("dn", bool)
PAYLOAD_COV = 3  # column a (0/1)    -> ("cov", bool)
PAYLOAD_MCOV = 4  # column a (0/1)   -> ("mcov", bool)
PAYLOAD_SCOV = 5  # column a (0/1)   -> ("scov", bool)
PAYLOAD_HCOV = 6  # column a (0/1)   -> ("hcov", bool)
PAYLOAD_PROP = 7  # no columns       -> ("prop",)
PAYLOAD_ACC = 8  # no columns        -> ("acc",)
PAYLOAD_REJ = 9  # no columns        -> ("rej",)
PAYLOAD_ID = 10  # column a          -> ("id", a)
PAYLOAD_ALIVE = 11  # no columns     -> ("alive",)
PAYLOAD_PROP_ID = 12  # column a     -> ("prop", a)

#: code → constant payload, for the column-free codes.
_CONSTANT_PAYLOADS = {
    PAYLOAD_PROP: ("prop",),
    PAYLOAD_ACC: ("acc",),
    PAYLOAD_REJ: ("rej",),
    PAYLOAD_ALIVE: ("alive",),
}

#: code → tag, for the single-bool codes.
_BOOL_TAGS = {
    PAYLOAD_DN: "dn",
    PAYLOAD_COV: "cov",
    PAYLOAD_MCOV: "mcov",
    PAYLOAD_SCOV: "scov",
    PAYLOAD_HCOV: "hcov",
}

PAYLOADS = tuple(range(13))


def _decode(code: int, a, b) -> object:
    """One slab entry's payload back to the object the per-node program
    sends."""
    if code == PAYLOAD_INT:
        return int(a)
    tag = _BOOL_TAGS.get(code)
    if tag is not None:
        return (tag, bool(a))
    constant = _CONSTANT_PAYLOADS.get(code)
    if constant is not None:
        return constant
    if code == PAYLOAD_HELLO:
        return ("hello", int(a), int(b))
    if code == PAYLOAD_ID:
        return ("id", int(a))
    if code == PAYLOAD_PROP_ID:
        return ("prop", int(a))
    raise ValueError(f"unknown payload code {code}")  # pragma: no cover


class VectorProgram(abc.ABC):
    """All nodes of one graph, stepped together as numpy arrays.

    State the scheduler reads: ``running`` (a numpy bool array over node
    indices) and ``num_running``, and the ``delivered``/``dropped``
    counters.  Flags it sets before the loop:
    ``record`` (keep trace slabs), ``strict`` (raise on sends to halted
    nodes instead of dropping) and ``collect`` (count messages for
    telemetry).  Outputs are not per-node sets: halting nodes write
    their ports into ``selected``, the global-port mask the scheduler
    returns as
    :attr:`RunResult.selected <repro.runtime.scheduler.RunResult.selected>`.

    Subclasses implement :meth:`_step`; the base class owns the round
    scaffolding, drop/strict accounting (:meth:`deliver`) and the lazy
    trace slabs (:meth:`log_sends` / :meth:`materialise_log`).
    """

    __slots__ = (
        "cg",
        "vg",
        "running",
        "num_running",
        "selected",
        "record",
        "strict",
        "collect",
        "delivered",
        "dropped",
        "_initial_running",
        "_slabs",
        "_halted_log",
    )

    def __init__(self, graph: PortNumberedGraph) -> None:
        cg = graph.compiled()
        self.cg = cg
        vg = cg.vector()
        self.vg = vg
        # Degree-0 nodes can never receive information: halted up front
        # with empty output, exactly like the other engines.
        self.running = vg.degrees > 0
        self.num_running = int(self.running.sum())
        self.selected = np.zeros(vg.num_ports, dtype=bool)
        self.record = False
        self.strict = False
        self.collect = False
        self.delivered = 0
        self.dropped = 0
        self._initial_running = self.num_running
        #: Per-round lists of (gports, code, a, b, dropped_mask) slabs
        #: and of halted node indices, kept only under ``record``.
        self._slabs: list[list[tuple]] = []
        self._halted_log: list[list[int]] = []

    # -- subclass hook -----------------------------------------------------

    @abc.abstractmethod
    def _step(self, rnd: int) -> None:
        """Execute round *rnd*: send (via :meth:`deliver` +
        :meth:`log_sends`), update array state, halt nodes via
        :meth:`halt_nodes`."""

    # -- round scaffolding -------------------------------------------------

    def step_all(self, rnd: int) -> None:
        """One full round; trace bookkeeping wraps the kernel step."""
        if self.record:
            self._slabs.append([])
            self._halted_log.append([])
        self._step(rnd)

    def deliver(self, rnd: int, gports):
        """Account for this round's sends on *gports* (canonical order).

        Returns ``None`` when every send is delivered, else the boolean
        delivered-mask.  Handles message counting, drop counting, and
        ``strict_delivery`` (raising on the first dropped send, exactly
        like the compiled router).  While no node has halted, nothing
        can drop and the check short-circuits.
        """
        n_sent = len(gports)
        if self.num_running == self._initial_running:
            if self.collect:
                self.delivered += n_sent
            return None
        vg = self.vg
        ok = self.running[vg.peer_node[gports]]
        n_ok = int(ok.sum())
        if n_ok != n_sent:
            if self.strict:
                g = int(gports[~ok][0])
                target = int(vg.mate[g])
                nodes = self.cg.nodes
                raise SimulationError(
                    f"node {nodes[int(vg.port_node[g])]!r} sent to halted "
                    f"node {nodes[int(vg.port_node[target])]!r} in round "
                    f"{rnd} (strict_delivery is enabled)"
                )
            self.dropped += n_sent - n_ok
        if self.collect:
            self.delivered += n_ok
        return None if n_ok == n_sent else ok

    def log_sends(self, gports, code, a=None, b=None, delivered=None) -> None:
        """Append one send slab to the current round (``record`` only).

        *code* is a payload code (scalar or per-send array); *a*/*b* are
        optional int columns; *delivered* is :meth:`deliver`'s mask (or
        ``None`` when nothing dropped).
        """
        dropped = None if delivered is None else ~delivered
        self._slabs[-1].append((gports, code, a, b, dropped))

    def halt_nodes(self, ks, ports=None) -> None:
        """Halt the nodes with indices *ks* (ascending).

        *ports* — an index array or a full-length bool mask over global
        ports — are the ports those nodes output; they must belong to
        *ks*.  ``None`` halts them with empty output.  Under ``record``
        *ks* also go into the round's halted list for the trace.
        """
        if ports is not None:
            self.selected[ports] = True
        self.running[ks] = False
        self.num_running -= len(ks)
        if self.record:
            self._halted_log[-1].extend(ks.tolist())

    # -- lazy trace --------------------------------------------------------

    def materialise_log(self):
        """Expand the per-round slabs into the flat compiled-engine log.

        Returns ``rounds_log`` in the exact shape
        :func:`~repro.runtime.trace.trace_from_log` consumes:
        one ``(messages, halted)`` pair per round with messages as
        ``(source_gport, target_gport, payload, dropped)`` tuples.
        """
        mate = self.vg.mate
        rounds_log = []
        for slabs, halted in zip(self._slabs, self._halted_log):
            messages: list[tuple[int, int, object, bool]] = []
            for gports, code, a, b, dropped in slabs:
                targets = mate[gports]
                scalar_code = not isinstance(code, np.ndarray)
                for idx in range(len(gports)):
                    c = code if scalar_code else int(code[idx])
                    payload = _decode(
                        c,
                        None if a is None else a[idx],
                        None if b is None else b[idx],
                    )
                    messages.append(
                        (
                            int(gports[idx]),
                            int(targets[idx]),
                            payload,
                            False if dropped is None else bool(dropped[idx]),
                        )
                    )
            rounds_log.append((messages, halted))
        return rounds_log
