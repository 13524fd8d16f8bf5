"""The execution-backend protocol and the name → backend table.

An :class:`ExecutionBackend` turns a batch of pending work units into
result records.  The contract mirrors the engine's determinism promise:
a backend may compute units in any order and on any substrate (the
calling thread, a thread pool, a process pool), but each record depends
only on its spec — so every backend produces byte-identical results and
the choice is purely a performance decision.

Backends are constructed from a *name* plus the worker count through
:func:`resolve_backend`; ``"auto"`` calibrates at run time (see
:mod:`repro.engine.backends.auto`).
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
    :class:`~repro.obs.spans.UnitTelemetry` (``None`` when telemetry is
    off — and always ``None``-able: the executor also accepts bare
    ``(index, record)`` pairs from third-party backends that predate
    telemetry).  Telemetry travels *next to* the record, never inside
    it, preserving the byte-identity contract for cached records.
    :meth:`describe` names what actually ran (e.g.
    ``"process(workers=4)"``) and :attr:`decision` carries a human-
    readable calibration note for backends that choose at run time.

    The built-in backends split *pending* with
    :func:`~repro.engine.executor.cells` and run each cell through
    :func:`~repro.engine.executor.execute_cell`, which builds the cell's
    graph once.  A backend that calls
    :func:`~repro.engine.executor.execute_unit_instrumented` per unit
    gets the same records; it just builds one graph per unit.
    """

    #: Registry name; set by subclasses.
    name: str = ""
    #: Calibration note (empty for backends with nothing to decide).
    decision: str = ""

    def run(
        self, pending: Sequence[tuple[int, "JobSpec"]]
    ) -> Iterator[tuple[int, "ResultRecord", "UnitTelemetry | None"]]:
        """Execute *pending* units, yielding results as they finish."""
        raise NotImplementedError

    def describe(self) -> str:
        """What this backend ran as (recorded in the execution report)."""
        return self.name


#: The names ``resolve_backend`` (and the CLI ``--backend`` flag) accept.
BACKEND_NAMES = ("auto", "inline", "process", "thread")


def resolve_backend(
    backend: "ExecutionBackend | str | None", *, workers: int = 1
) -> ExecutionBackend:
    """Normalise a backend argument to an :class:`ExecutionBackend`.

    ``None`` means ``"auto"``: serial for cheap units, process fan-out
    once per-unit cost justifies pool startup.  Ready-made backend
    instances pass through (worker count and all).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    from repro.engine.backends.auto import AutoBackend
    from repro.engine.backends.inline import InlineBackend
    from repro.engine.backends.process import ProcessBackend
    from repro.engine.backends.thread import ThreadBackend

    if backend is None:
        backend = "auto"
    if backend == "auto":
        return AutoBackend(workers=workers)
    if backend == "inline":
        return InlineBackend()
    if backend == "process":
        return ProcessBackend(workers=workers)
    if backend == "thread":
        return ThreadBackend(workers=workers)
    raise ValueError(
        f"unknown execution backend {backend!r}; "
        f"available: {', '.join(BACKEND_NAMES)}"
    )
