"""Synchronous message-passing runtime for the port-numbering model (§2.2)."""

from repro.runtime.algorithm import (
    AnonymousAlgorithm,
    IdentifiedAlgorithm,
    Message,
    NodeProgram,
)
from repro.runtime.batch import ABSENT, BatchProgram
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
    engines_available,
    run_anonymous,
    run_identified,
    use_engine,
)
from repro.runtime.trace import ExecutionTrace, RoundTrace, SentMessage
from repro.runtime.vector import VectorProgram, vector_available

__all__ = [
    "NodeProgram",
    "AnonymousAlgorithm",
    "IdentifiedAlgorithm",
    "Message",
    "ABSENT",
    "BatchProgram",
    "VectorProgram",
    "vector_available",
    "engines_available",
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
