"""Execution traces for the synchronous simulator.

A trace records, per round, which messages crossed which connections.
Traces are optional (they cost memory proportional to the message volume)
and are primarily used by tests, the figure reproductions, and debugging.

A message addressed to a node that has already halted is *dropped*: it
is still part of the round's traffic (the sender paid for it, so it
counts towards :attr:`ExecutionTrace.total_messages` — the historical
and cache-stable definition), but it was never delivered.  Dropped sends
carry :attr:`SentMessage.dropped` so message accounting and the
scheduler's ``strict_delivery`` diagnostics agree on exactly which
sends those were; :attr:`RoundTrace.delivered_count` /
:attr:`ExecutionTrace.total_delivered` expose the delivered-only view.

The compiled scheduler does not build these objects inside its round
loop: it appends compact tuples of global port indices to a flat log and
reconstructs the trace once, after the run, via :func:`trace_from_log`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.portgraph.ports import Node, Port

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.portgraph.compiled import CompiledGraph

__all__ = ["SentMessage", "RoundTrace", "ExecutionTrace", "trace_from_log"]


@dataclass(frozen=True)
class SentMessage:
    """One message in flight: sent from *source* port, arriving at *target*.

    ``dropped`` marks a send addressed to an already-halted node: routed
    and recorded, but never delivered (see the scheduler's
    ``strict_delivery`` option for turning these into errors).
    """

    source: Port
    target: Port
    payload: object
    dropped: bool = False


@dataclass
class RoundTrace:
    """Everything that happened in one synchronous round."""

    round_number: int
    messages: list[SentMessage] = field(default_factory=list)
    halted_nodes: list[Node] = field(default_factory=list)

    @property
    def message_count(self) -> int:
        return len(self.messages)

    @property
    def dropped_count(self) -> int:
        return sum(1 for m in self.messages if m.dropped)

    @property
    def delivered_count(self) -> int:
        return len(self.messages) - self.dropped_count


@dataclass
class ExecutionTrace:
    """The full history of one simulation run."""

    rounds: list[RoundTrace] = field(default_factory=list)

    def __iter__(self) -> Iterator[RoundTrace]:
        return iter(self.rounds)

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def total_messages(self) -> int:
        """All sends, dropped included (the cache-stable historical count)."""
        return sum(r.message_count for r in self.rounds)

    @property
    def total_dropped(self) -> int:
        """Sends addressed to halted nodes — never delivered."""
        return sum(r.dropped_count for r in self.rounds)

    @property
    def total_delivered(self) -> int:
        return self.total_messages - self.total_dropped

    def summary(self) -> str:
        """A compact human-readable digest of the run."""
        lines = [f"rounds: {len(self.rounds)}"]
        lines.append(f"total messages: {self.total_messages}")
        dropped = self.total_dropped
        if dropped:
            lines.append(f"dropped (sent to halted nodes): {dropped}")
        for r in self.rounds:
            if r.halted_nodes:
                lines.append(
                    f"  round {r.round_number}: {r.message_count} msgs, "
                    f"{len(r.halted_nodes)} node(s) halted"
                )
        return "\n".join(lines)


def trace_from_log(
    cg: "CompiledGraph",
    rounds_log: "list[tuple[list[tuple[int, int, object, bool]], list[int]]]",
) -> ExecutionTrace:
    """Reconstruct an :class:`ExecutionTrace` from the flat round log.

    *rounds_log* holds one ``(messages, halted)`` pair per round, where
    messages are ``(source_gport, target_gport, payload, dropped)``
    tuples and halted is a list of node indices.  The compiled
    schedulers log in this form during the run and materialise the
    object trace here, once, afterwards — per-round allocation stays out
    of the hot loop.
    """
    port = cg.port
    nodes = cg.nodes
    trace = ExecutionTrace()
    for rnd, (messages, halted) in enumerate(rounds_log):
        round_trace = RoundTrace(rnd)
        round_trace.messages = [
            SentMessage(port(src), port(dst), payload, dropped)
            for src, dst, payload, dropped in messages
        ]
        round_trace.halted_nodes = [nodes[k] for k in halted]
        trace.rounds.append(round_trace)
    return trace
