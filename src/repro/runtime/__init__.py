"""Synchronous message-passing runtime for the port-numbering model (§2.2)."""

# ``repro.portgraph`` imports ``repro.eds``, whose feasibility check
# imports ``repro.runtime.outputs``: load the graph layer first, so that
# module is never reached half-initialised.
import repro.portgraph  # noqa: F401
from repro.runtime.algorithm import (
    AnonymousAlgorithm,
    IdentifiedAlgorithm,
    Message,
    NodeProgram,
)
from repro.runtime.outputs import (
    EdgeSelection,
    check_consistency,
    decode_edge_set,
    edge_set_to_outputs,
)
from repro.runtime.scheduler import (
    DEFAULT_MAX_ROUNDS,
    ENGINES,
    RunResult,
    run_anonymous,
    run_identified,
    use_engine,
)
from repro.runtime.trace import ExecutionTrace, RoundTrace, SentMessage
from repro.runtime.vector import VectorProgram

__all__ = [
    "NodeProgram",
    "AnonymousAlgorithm",
    "IdentifiedAlgorithm",
    "Message",
    "VectorProgram",
    "RunResult",
    "EdgeSelection",
    "run_anonymous",
    "run_identified",
    "use_engine",
    "ENGINES",
    "DEFAULT_MAX_ROUNDS",
    "check_consistency",
    "decode_edge_set",
    "edge_set_to_outputs",
    "ExecutionTrace",
    "RoundTrace",
    "SentMessage",
]
