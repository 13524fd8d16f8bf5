"""The legacy dict-based scheduler, kept as an executable reference.

This is the original pure-Python round loop: per-round inbox dicts for
every running node, involution lookups through the graph's ``dict[Port,
Port]``, and per-node ``send``/``receive`` dispatch.  The compiled
scheduler (:mod:`repro.runtime.scheduler`) replaces it as the default
execution path; this module survives for two reasons:

* the **differential test suite** (``tests/test_runtime_compiled.py``)
  asserts the compiled paths are output-, round-, and trace-identical
  to this reference across the full algorithm × graph-family matrix;
* the **runtime benchmark** (``benchmarks/bench_runtime_core.py``)
  reports the legacy-vs-compiled speedup, the repo's core perf
  trajectory number.

Two deliberate deviations from the historical code, both invisible to
outputs, round counts, and message totals: sends are collected in the
fixed deterministic node order (the old code iterated a ``set``, so the
within-round trace order depended on hash layout), and sends to halted
nodes are recorded with ``SentMessage.dropped`` set (they were always
recorded; now they are labelled).
"""

from __future__ import annotations

from repro.exceptions import RoundLimitExceeded, SimulationError
from repro.obs.spans import current_recorder
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node
from repro.runtime.algorithm import NodeProgram
from repro.runtime.outputs import pack_outputs
from repro.runtime.trace import ExecutionTrace, RoundTrace, SentMessage

__all__ = ["execute_legacy"]


def execute_legacy(
    graph: PortNumberedGraph,
    programs: dict[Node, NodeProgram],
    max_rounds: int,
    record_trace: bool,
    strict_delivery: bool = False,
):
    """The reference implementation of one synchronous execution."""
    from repro.runtime.scheduler import RunResult

    trace = ExecutionTrace() if record_trace else None
    running = {v for v, prog in programs.items() if not prog.halted}
    # The deterministic delivery order never changes; fix it once instead
    # of re-sorting the running set every round.
    node_order = sorted(programs, key=repr)
    rnd = 0
    rec = current_recorder()
    n_delivered = 0
    n_dropped = 0

    while running:
        if rnd >= max_rounds:
            raise RoundLimitExceeded(
                f"{len(running)} node(s) still running after "
                f"{max_rounds} rounds"
            )

        round_trace = RoundTrace(rnd) if record_trace else None

        # 1. collect sends from running nodes
        inboxes: dict[Node, dict[int, object]] = {v: {} for v in running}
        for v in (u for u in node_order if u in running):
            out = programs[v].send(rnd)
            degree = graph.degree(v)
            for port, payload in out.items():
                if not 1 <= port <= degree:
                    raise SimulationError(
                        f"node {v!r} sent on invalid port {port} "
                        f"(degree {degree})"
                    )
                u, j = graph.connection(v, port)
                # Messages to halted nodes are dropped (their programs no
                # longer receive); in the paper's algorithms all nodes halt
                # simultaneously so this never matters.  ``strict_delivery``
                # turns the silent drop into an error so other algorithms
                # surface the bug.
                dropped = u not in inboxes
                if not dropped:
                    inboxes[u][j] = payload
                elif strict_delivery:
                    raise SimulationError(
                        f"node {v!r} sent to halted node {u!r} in round "
                        f"{rnd} (strict_delivery is enabled)"
                    )
                else:
                    n_dropped += 1
                if round_trace is not None:
                    round_trace.messages.append(
                        SentMessage((v, port), (u, j), payload, dropped)
                    )

        if rec is not None:
            n_delivered += sum(len(box) for box in inboxes.values())

        # 2. deliver and let nodes step / halt
        newly_halted: list[Node] = []
        for v in (u for u in node_order if u in running):
            programs[v].receive(rnd, inboxes[v])
            if programs[v].halted:
                newly_halted.append(v)
        for v in newly_halted:
            running.discard(v)
            if round_trace is not None:
                round_trace.halted_nodes.append(v)

        if trace is not None and round_trace is not None:
            trace.rounds.append(round_trace)
        rnd += 1

    if rec is not None:
        from repro.runtime.scheduler import _record_run

        _record_run(rec, rnd, n_delivered, n_dropped)
    selected = pack_outputs(
        graph.compiled(), [programs[v].output for v in graph.nodes]
    )
    return RunResult(graph, selected, rnd, trace)
