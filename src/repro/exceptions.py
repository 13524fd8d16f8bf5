"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphValidationError",
    "InvolutionError",
    "PortNumberingError",
    "NotSimpleGraphError",
    "NotRegularGraphError",
    "CoveringMapError",
    "QuotientError",
    "FactorizationError",
    "SimulationError",
    "RoundLimitExceeded",
    "InconsistentOutputError",
    "AlgorithmContractError",
    "CertificateError",
    "ConstructionError",
    "WorkerCrashedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphValidationError(ReproError):
    """A port-numbered graph definition violates the model of Section 2.1."""


class InvolutionError(GraphValidationError):
    """The connection map ``p`` is not an involution on the port set."""


class PortNumberingError(GraphValidationError):
    """A node's ports are not exactly ``1, 2, ..., deg(v)``."""


class NotSimpleGraphError(ReproError):
    """An operation that requires a simple graph received a multigraph."""


class NotRegularGraphError(ReproError):
    """An operation that requires a d-regular graph received something else."""


class CoveringMapError(ReproError):
    """A claimed covering map violates the conditions of Section 2.3."""


class QuotientError(ReproError):
    """A node partition does not induce a well-defined quotient graph."""


class FactorizationError(ReproError):
    """A graph cannot be factorised as requested (e.g. odd degrees)."""


class SimulationError(ReproError):
    """The synchronous simulator detected a protocol violation."""


class RoundLimitExceeded(SimulationError):
    """The simulated algorithm did not halt within the allowed rounds."""


class InconsistentOutputError(SimulationError):
    """Node outputs are not internally consistent per Section 2.2.

    If ``i`` is in ``X(v)`` and ``p(v, i) = (u, j)`` then ``j`` must be in
    ``X(u)``; this error signals that the condition failed.
    """


class AlgorithmContractError(ReproError):
    """An algorithm was run outside its documented preconditions."""


class CertificateError(ReproError):
    """A bound certificate failed its exact-arithmetic verification."""


class ConstructionError(ReproError):
    """A lower-bound construction received unsupported parameters."""


class WorkerCrashedError(ReproError):
    """A pool worker died before its cells finished (e.g. OOM-killed)."""
