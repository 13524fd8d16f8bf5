"""The synchronous scheduler: executes node programs per paper §2.2.

Each round the scheduler

1. asks every running node program for its outgoing messages,
2. routes every message through the involution ``p`` (the message sent by
   ``v`` to its port ``i`` is received by ``u`` from port ``j`` where
   ``p(v, i) = (u, j)``),
3. delivers each node's inbox.

The run ends when every node has halted; a configurable round limit
guards against non-terminating programs.  :class:`RunResult` bundles the
outputs (as one selected-port mask, whichever engine ran), the round
count, and (optionally) a full message trace.

Execution engines
-----------------

Three engines share the public entry points:

* ``"vector"`` (default) — the numpy struct-of-arrays loop
  (:mod:`repro.runtime.vector`): one round is a handful of whole-graph
  array operations.  It runs the algorithm's vector kernel (the
  ``vector_program`` hook); an algorithm without one — the baselines,
  user-supplied programs, identifiers beyond int64 — runs on the
  compiled loop instead, silently.
* ``"compiled"`` — the per-node loop over the graph's **compiled
  flat-array form**
  (:meth:`~repro.portgraph.graph.PortNumberedGraph.compiled`): every
  node runs its own :class:`NodeProgram`, which knows only its degree,
  so anonymity holds by construction (the paper-faithful reference).
  Routing is one read of the flat involution array, the delivery order
  is the graph's construction order, per-node inbox mappings are
  preallocated once and reused across rounds, and traces are
  reconstructed from a flat log after the run.
* ``"legacy"`` — the original dict-based loop
  (:mod:`repro.runtime.legacy`), the independent reference the
  differential tests and the runtime benchmark compare against.

All engines are observationally identical — same outputs, rounds, and
traces; ``tests/test_runtime_compiled.py`` enforces this across the full
algorithm × graph-family matrix.  The ``simulate`` span's ``engine``
annotation names the engine that ran.  Pick one for a region with
:func:`use_engine`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.exceptions import RoundLimitExceeded, SimulationError
from repro.obs.spans import current_recorder, span
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node
from repro.runtime.algorithm import (
    AnonymousAlgorithm,
    IdentifiedAlgorithm,
    NodeProgram,
)
from repro.runtime.outputs import (
    EdgeSelection,
    check_selection,
    pack_outputs,
    unpack_outputs,
)
from repro.runtime.trace import ExecutionTrace, trace_from_log

__all__ = [
    "ENGINES",
    "RunResult",
    "run_anonymous",
    "run_identified",
    "use_engine",
    "DEFAULT_MAX_ROUNDS",
]

DEFAULT_MAX_ROUNDS = 100_000

#: The selectable execution engines (see the module docstring).
ENGINES = ("vector", "compiled", "legacy")

_engine_override: ContextVar[str | None] = ContextVar(
    "repro_runtime_engine", default=None
)


@contextmanager
def use_engine(name: str) -> Iterator[None]:
    """Run a region under a different scheduler engine.

    The one way to pick an engine: the CLI's ``--engine`` flag, the
    differential tests and the runtime benchmark wrap their calls in it
    (``use_engine("legacy")`` compares against the reference loop).  The
    override is a :class:`~contextvars.ContextVar` of this process, so
    it does not reach pool workers: run under the inline backend to use
    it.
    """
    _resolve_engine(name)  # validate eagerly
    token = _engine_override.set(name)
    try:
        yield
    finally:
        _engine_override.reset(token)


def _resolve_engine(engine: str | None) -> str:
    if engine is None:
        engine = _engine_override.get() or "vector"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; available: {ENGINES}"
        )
    return engine


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one simulated execution.

    ``selected`` is the result every engine returns: one boolean mask
    over the graph's global ports (indexed like ``graph.compiled()``),
    true where the owning node announced the port in its output
    ``X(v)``.  The per-node :attr:`outputs` mapping and the decoded edge
    set are derived from it lazily and cached, so a consumer that only
    needs the solution size or its feasibility never builds them.
    """

    graph: PortNumberedGraph
    selected: np.ndarray
    rounds: int
    trace: ExecutionTrace | None = None

    @cached_property
    def outputs(self) -> Mapping[Node, frozenset[int]]:
        """Node → announced port set ``X(v)``."""
        return unpack_outputs(self.graph.compiled(), self.selected)

    @cached_property
    def _selection(self) -> EdgeSelection:
        check_selection(self.graph.compiled(), self.selected)
        return EdgeSelection(self.graph, self.selected)

    def edge_set(self) -> EdgeSelection:
        """The selected edge set, §2.2-checked on first call.

        Equal to (and hashing like) the ``frozenset[PortEdge]`` of the
        selected edges; see :class:`~repro.runtime.outputs.EdgeSelection`
        for what is computed on the mask and what decodes edges.
        """
        return self._selection

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.rounds == other.rounds
            and self.trace == other.trace
            and bool(np.array_equal(self.selected, other.selected))
        )


def _execute(
    graph: PortNumberedGraph,
    programs: dict[Node, NodeProgram],
    max_rounds: int,
    record_trace: bool,
    strict_delivery: bool = False,
) -> RunResult:
    """The compiled per-node round loop.

    Routing runs over the flat arrays of the compiled graph; the only
    per-round allocations are the messages themselves.  Inbox mappings
    are preallocated per node and reused — they are cleared after each
    round's delivery, so programs must copy anything they want to keep
    (see :class:`~repro.runtime.algorithm.NodeProgram`).
    """
    cg = graph.compiled()
    nodes = cg.nodes
    n = cg.num_nodes
    progs = [programs[v] for v in nodes]
    degrees = cg.degrees
    offsets = cg.offsets
    mate = cg.mate
    port_node = cg.port_node

    running = bytearray(0 if prog.halted else 1 for prog in progs)
    num_running = sum(running)
    inboxes: list[dict[int, object]] = [{} for _ in range(n)]
    touched: list[int] = []
    rounds_log: list | None = [] if record_trace else None
    rnd = 0
    # Telemetry is sampled once per run, never per message: delivered
    # messages are summed from the touched inboxes each round (only when
    # a recorder is active), drops are counted in the already-rare
    # halted-target branch.
    rec = current_recorder()
    n_delivered = 0
    n_dropped = 0

    with span("simulate:rounds"):
        while num_running:
            if rnd >= max_rounds:
                raise RoundLimitExceeded(
                    f"{num_running} node(s) still running after "
                    f"{max_rounds} rounds"
                )

            log: list | None = [] if record_trace else None

            # 1. collect sends from running nodes (fixed construction order)
            for k in range(n):
                if not running[k]:
                    continue
                out = progs[k].send(rnd)
                if not out:
                    continue
                base = offsets[k]
                degree = degrees[k]
                for port, payload in out.items():
                    if not 1 <= port <= degree:
                        raise SimulationError(
                            f"node {nodes[k]!r} sent on invalid port {port} "
                            f"(degree {degree})"
                        )
                    target = mate[base + port - 1]
                    tk = port_node[target]
                    if running[tk]:
                        box = inboxes[tk]
                        if not box:
                            touched.append(tk)
                        box[target - offsets[tk] + 1] = payload
                        if log is not None:
                            log.append(
                                (base + port - 1, target, payload, False)
                            )
                    else:
                        # Messages to halted nodes are dropped (their
                        # programs no longer receive); the paper's algorithms
                        # halt simultaneously so this never fires for them.
                        if strict_delivery:
                            raise SimulationError(
                                f"node {nodes[k]!r} sent to halted node "
                                f"{nodes[tk]!r} in round {rnd} "
                                "(strict_delivery is enabled)"
                            )
                        n_dropped += 1
                        if log is not None:
                            log.append(
                                (base + port - 1, target, payload, True)
                            )

            if rec is not None:
                for tk in touched:
                    n_delivered += len(inboxes[tk])

            # 2. deliver and let nodes step / halt
            newly_halted: list[int] = []
            for k in range(n):
                if not running[k]:
                    continue
                prog = progs[k]
                prog.receive(rnd, inboxes[k])
                if prog.halted:
                    newly_halted.append(k)
            for k in newly_halted:
                running[k] = 0
            num_running -= len(newly_halted)
            for tk in touched:
                inboxes[tk].clear()
            touched.clear()

            if rounds_log is not None:
                rounds_log.append((log, newly_halted))
            rnd += 1

    if rec is not None:
        _record_run(rec, rnd, n_delivered, n_dropped)
    with span("simulate:egress"):
        # The loop exits only when every node halted, so every
        # program has announced its output.
        selected = pack_outputs(cg, [prog.output for prog in progs])
        trace = (
            trace_from_log(cg, rounds_log) if rounds_log is not None
            else None
        )
    return RunResult(graph, selected, rnd, trace)


def _record_run(rec, rounds: int, delivered: float, dropped: float) -> None:
    """Report one scheduler run's counters onto the active recorder."""
    rec.count("runtime.runs")
    rec.count("runtime.rounds", rounds)
    rec.count("runtime.messages.delivered", delivered)
    rec.count("runtime.messages.dropped", dropped)
    rec.annotate(rounds=rounds)


def _execute_vector(
    graph: PortNumberedGraph,
    vec,
    max_rounds: int,
    record_trace: bool,
    strict_delivery: bool = False,
) -> RunResult:
    """The vector round loop: one array-ops ``step_all`` per round.

    The kernel writes its selected-port mask as nodes halt, so egress is
    only the trace materialisation (when one was requested).
    """
    vec.record = record_trace
    vec.strict = strict_delivery
    rec = current_recorder()
    vec.collect = rec is not None
    rnd = 0

    with span("simulate:rounds"):
        while vec.num_running:
            if rnd >= max_rounds:
                raise RoundLimitExceeded(
                    f"{vec.num_running} node(s) still running after "
                    f"{max_rounds} rounds"
                )
            vec.step_all(rnd)
            rnd += 1

    cg = vec.cg
    if rec is not None:
        _record_run(rec, rnd, vec.delivered, vec.dropped)
        rec.count("runtime.vector.runs")
    with span("simulate:egress"):
        trace = (
            trace_from_log(cg, vec.materialise_log()) if record_trace
            else None
        )
    return RunResult(graph, vec.selected, rnd, trace)


def _annotate_engine(resolved: str) -> None:
    """Tag the enclosing telemetry span (if any) with the engine name."""
    rec = current_recorder()
    if rec is not None:
        rec.annotate(engine=resolved)


def _make_programs(
    graph: PortNumberedGraph, make_program: Callable[[Node], NodeProgram]
) -> dict[Node, NodeProgram]:
    """One program per node; degree-0 nodes halt at once with ∅."""
    programs: dict[Node, NodeProgram] = {}
    with span("simulate:setup"):
        for v in graph.nodes:
            prog = make_program(v)
            if graph.degree(v) == 0 and not prog.halted:
                prog.halt(frozenset())
            programs[v] = prog
    return programs


def _dispatch(
    graph: PortNumberedGraph,
    algorithm,
    hook_args: tuple,
    make_program: Callable[[Node], NodeProgram],
    max_rounds: int,
    record_trace: bool,
    strict_delivery: bool,
) -> RunResult:
    """Pick the engine, build its kernel or programs, and run it.

    *hook_args* follow the graph in the ``vector_program`` hook call
    (``()`` anonymous, ``(ids,)`` identified); a missing hook or one
    that returns ``None`` sends ``vector`` to the compiled loop.
    """
    resolved = _resolve_engine(None)
    if resolved == "vector":
        hook = getattr(algorithm, "vector_program", None)
        if hook is not None:
            with span("simulate:setup"):
                vec = hook(graph, *hook_args)
            if vec is not None:
                _annotate_engine("vector")
                return _execute_vector(
                    graph, vec, max_rounds, record_trace, strict_delivery
                )
        resolved = "compiled"
    _annotate_engine(resolved)
    programs = _make_programs(graph, make_program)
    if resolved == "legacy":
        from repro.runtime.legacy import execute_legacy

        return execute_legacy(
            graph, programs, max_rounds, record_trace, strict_delivery
        )
    return _execute(graph, programs, max_rounds, record_trace, strict_delivery)


def run_anonymous(
    graph: PortNumberedGraph,
    algorithm: AnonymousAlgorithm,
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
    strict_delivery: bool = False,
) -> RunResult:
    """Run a deterministic anonymous algorithm on *graph*.

    *algorithm* is a factory mapping a degree to a fresh
    :class:`NodeProgram`; it is invoked once per node with only the node's
    degree, which structurally enforces the anonymity of the model.

    Nodes of degree 0 are halted immediately with empty output (they can
    never receive information).

    With ``strict_delivery`` a message addressed to a node that has
    already halted raises :class:`SimulationError` instead of being
    silently dropped; the paper's algorithms halt all nodes simultaneously
    so they are unaffected, but the option surfaces lifecycle bugs in
    user-supplied algorithms.

    The scheduler implementation is the one :func:`use_engine` selects
    (default ``"vector"``; see :data:`ENGINES`).  Under the vector
    engine a factory exposing ``vector_program(graph)`` is stepped as
    whole-graph array operations.
    """
    return _dispatch(
        graph, algorithm, (), lambda v: algorithm(graph.degree(v)),
        max_rounds, record_trace, strict_delivery,
    )


def run_identified(
    graph: PortNumberedGraph,
    algorithm: IdentifiedAlgorithm,
    *,
    ids: Mapping[Node, int] | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
    strict_delivery: bool = False,
) -> RunResult:
    """Run an algorithm in the stronger unique-identifier model.

    *ids* assigns each node a distinct integer; by default nodes are
    numbered by their deterministic order in ``graph.nodes``.  This runner
    exists for baseline comparisons (paper §1.3); the paper's own
    algorithms never use it.  Identified factories with a vector kernel
    expose ``vector_program(graph, ids)``.
    """
    if ids is None:
        ids = {v: k for k, v in enumerate(graph.nodes)}
    if len(set(ids.values())) != graph.num_nodes:
        raise SimulationError("node identifiers must be unique")
    return _dispatch(
        graph, algorithm, (ids,),
        lambda v: algorithm(graph.degree(v), ids[v]),
        max_rounds, record_trace, strict_delivery,
    )
