"""The execution-backend protocol and the name → backend table.

An :class:`ExecutionBackend` turns a batch of pending work units into
result records.  The contract mirrors the engine's determinism promise:
a backend may compute units in any order and in any process, but each
record depends only on its spec — so every backend produces
byte-identical results and the choice is purely a performance decision.

Backends are constructed from a *name* plus the worker count through
:func:`resolve_backend`; ``"auto"`` is inline for one worker and the
process pool for more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.records import ResultRecord
    from repro.engine.spec import JobSpec
    from repro.obs.spans import UnitTelemetry

__all__ = ["BACKEND_NAMES", "ExecutionBackend", "resolve_backend"]


class ExecutionBackend:
    """Base class for execution backends.

    Subclasses implement :meth:`run`, yielding ``(index, record,
    telemetry)`` triples in any order; the executor reassembles
    submission order.  The third element is the unit's
    :class:`~repro.obs.spans.UnitTelemetry`, or ``None`` when telemetry
    is off.  Telemetry travels *next to* the record, never inside it,
    preserving the byte-identity contract for cached records.
    :meth:`describe` names what ran (e.g. ``"process(workers=4)"``).

    The built-in backends split *pending* with
    :func:`~repro.engine.executor.cells` and run each cell through
    :func:`~repro.engine.executor.execute_cell`, which builds the cell's
    graph once.  A backend that hands ``execute_cell`` one unit at a
    time gets the same records; it just builds one graph per unit.
    """

    #: Registry name; set by subclasses.
    name: str = ""

    def run(
        self, pending: Sequence[tuple[int, "JobSpec"]]
    ) -> Iterator[tuple[int, "ResultRecord", "UnitTelemetry | None"]]:
        """Execute *pending* units, yielding results as they finish."""
        raise NotImplementedError

    def describe(self) -> str:
        """What this backend ran as (recorded in the execution report)."""
        return self.name


#: The names ``resolve_backend`` (and the CLI ``--backend`` flag) accept.
BACKEND_NAMES = ("auto", "inline", "process")


def resolve_backend(
    backend: "ExecutionBackend | str | None", *, workers: int = 1
) -> ExecutionBackend:
    """Normalise a backend argument to an :class:`ExecutionBackend`.

    ``None`` means ``"auto"``: :class:`InlineBackend` for ``workers <=
    1``, :class:`ProcessBackend` with *workers* processes otherwise.
    Ready-made backend instances pass through (worker count and all).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    from repro.engine.backends.inline import InlineBackend
    from repro.engine.backends.process import ProcessBackend

    if backend is None or backend == "auto":
        backend = "inline" if workers <= 1 else "process"
    if backend == "inline":
        return InlineBackend()
    if backend == "process":
        return ProcessBackend(workers=workers)
    raise ValueError(
        f"unknown execution backend {backend!r}; "
        f"available: {', '.join(BACKEND_NAMES)}"
    )
