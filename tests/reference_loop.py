"""The differential reference: the §2.2 round loop over the ``(d, p)`` dicts.

Paper §2.2: a message that ``v`` sends on its port ``i`` is received by
``u`` on port ``j``, where ``p(v, i) = (u, j)``.  :func:`execute_reference`
does exactly that, one node and one message at a time, reading the
degree function and the involution from the graph's ``(d, p)`` dicts
(``graph._degrees`` and ``graph._p``).  For a graph built from dicts
those are the mappings it was built from, so the loop shares nothing
with the CSR arrays (``offsets``, ``mate``, ``port_node``) that the
``compiled`` and ``vector`` engines route over: a lowering or routing
bug in those arrays shows up as a difference from this loop.

The reference is not an engine of :mod:`repro.runtime`.
:func:`reference_engine` installs it for a region: it selects the
``compiled`` engine and patches :func:`repro.runtime.scheduler._execute`
with :func:`execute_reference`, so the public runners (and the
registry's ``run``/``traced`` closures) build their node programs as
usual and hand them to this loop.  It records no runtime counters;
those belong to the engines.

Importable as ``tests.reference_loop`` from the repository root, in
pytest and in script mode (``PYTHONPATH=src:benchmarks:.``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import ContextManager, Iterator
from unittest import mock

from repro.exceptions import RoundLimitExceeded, SimulationError
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node
from repro.runtime import scheduler
from repro.runtime.algorithm import NodeProgram
from repro.runtime.outputs import pack_outputs
from repro.runtime.scheduler import ENGINES, RunResult, use_engine
from repro.runtime.trace import ExecutionTrace, RoundTrace, SentMessage

__all__ = [
    "REFERENCE",
    "RUNNABLE",
    "execute_reference",
    "reference_engine",
    "run_under",
]

#: The name the tests give the reference next to the engine names.
REFERENCE = "reference"

#: What the engine-parametrised tests run on: both engines and the
#: reference.
RUNNABLE = (*ENGINES, REFERENCE)


def execute_reference(
    graph: PortNumberedGraph,
    programs: dict[Node, NodeProgram],
    max_rounds: int,
    record_trace: bool,
    strict_delivery: bool = False,
) -> RunResult:
    """One synchronous execution, every message routed through ``p``.

    Takes and returns what :func:`repro.runtime.scheduler._execute`
    does.  Nodes act in ``repr``-sorted order, as the engines' node
    order is.  A send to a halted node is dropped and labelled so in the
    trace, or raises :class:`SimulationError` under *strict_delivery*.
    """
    d = graph._degrees
    p = graph._p
    trace = ExecutionTrace() if record_trace else None
    running = {v for v, prog in programs.items() if not prog.halted}
    node_order = sorted(d, key=repr)
    rnd = 0

    while running:
        if rnd >= max_rounds:
            raise RoundLimitExceeded(
                f"{len(running)} node(s) still running after "
                f"{max_rounds} rounds"
            )
        round_trace = RoundTrace(rnd) if record_trace else None

        # 1. collect the sends of the running nodes and route them
        inboxes: dict[Node, dict[int, object]] = {v: {} for v in running}
        for v in (u for u in node_order if u in running):
            degree = d[v]
            for port, payload in programs[v].send(rnd).items():
                if not 1 <= port <= degree:
                    raise SimulationError(
                        f"node {v!r} sent on invalid port {port} "
                        f"(degree {degree})"
                    )
                u, j = p[(v, port)]
                dropped = u not in inboxes
                if not dropped:
                    inboxes[u][j] = payload
                elif strict_delivery:
                    raise SimulationError(
                        f"node {v!r} sent to halted node {u!r} in round "
                        f"{rnd} (strict_delivery is enabled)"
                    )
                if round_trace is not None:
                    round_trace.messages.append(
                        SentMessage((v, port), (u, j), payload, dropped)
                    )

        # 2. deliver; a node that halts stops running after this round
        newly_halted = []
        for v in (u for u in node_order if u in running):
            programs[v].receive(rnd, inboxes[v])
            if programs[v].halted:
                newly_halted.append(v)
        running.difference_update(newly_halted)
        if round_trace is not None:
            round_trace.halted_nodes.extend(newly_halted)
            trace.rounds.append(round_trace)
        rnd += 1

    selected = pack_outputs(
        graph.compiled(), [programs[v].output for v in graph.nodes]
    )
    return RunResult(graph, selected, rnd, trace)


@contextmanager
def reference_engine() -> Iterator[None]:
    """Run a region's simulations on :func:`execute_reference`."""
    with use_engine("compiled"), mock.patch.object(
        scheduler, "_execute", execute_reference
    ):
        yield


def run_under(name: str) -> ContextManager[None]:
    """The region for one of :data:`RUNNABLE`: :func:`use_engine` for an
    engine, :func:`reference_engine` for :data:`REFERENCE`."""
    return reference_engine() if name == REFERENCE else use_engine(name)
