"""The telemetry session: where per-unit telemetry aggregates.

A :class:`TelemetrySession` is installed for the duration of one CLI
command (or any ``with telemetry() as session:`` block).  While one is
active, ``run_units`` switches unit execution to the instrumented path,
collects each computed unit's :class:`~repro.obs.spans.UnitTelemetry`,
and merges it here; the cache reports lookup latency; the executor
notes which backend ran.  With no session active every instrumentation point
is a no-op — that is the "always-on-cheap" contract.

The session is deliberately dumb storage plus aggregation: rendering
lives in :mod:`repro.obs.report`, export in :mod:`repro.obs.trace`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import UnitTelemetry

__all__ = ["TelemetrySession", "current_session", "telemetry"]


class TelemetrySession:
    """Aggregates telemetry for one command / sweep invocation."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        *,
        capture_memory: bool = False,
    ):
        self.units: list[UnitTelemetry] = []
        self.metrics = MetricsRegistry()
        #: Free-form annotations (backend description, command name)
        #: surfaced in the report and the trace.
        self.notes: dict[str, str] = {}
        #: Seconds each worker (``pid:thread``) spent computing units.
        self.worker_busy: dict[str, float] = {}
        #: Opt-in per-phase memory capture (``--mem``): the executor
        #: raises the process-wide memory flag while this session is
        #: active.  Off by default to protect the <5% overhead budget.
        self.capture_memory = bool(capture_memory)
        self._clock = clock
        self._started = clock()

    # -- ingestion -----------------------------------------------------

    def add_unit(self, unit: UnitTelemetry) -> None:
        """Merge one computed unit's telemetry into the aggregate."""
        self.units.append(unit)
        self.metrics.inc("units.computed")
        self.metrics.observe("unit.wall_s", unit.wall_s)
        self.worker_busy[unit.worker] = (
            self.worker_busy.get(unit.worker, 0.0) + unit.wall_s
        )
        self.metrics.merge_counters(unit.counters)
        for phase, self_s in unit.phase_self_times().items():
            self.metrics.observe(f"phase.{phase}", self_s)
        if unit.mem_peak_b is not None:
            self.metrics.observe("unit.mem_peak_b", unit.mem_peak_b)
            if unit.rss_peak_b is not None:
                self.metrics.observe("unit.rss_peak_b", unit.rss_peak_b)
            for phase, peak_b in unit.phase_mem_peaks().items():
                self.metrics.observe(f"phase_mem.{phase}", peak_b)
            engine = unit.engine()
            if engine:
                self.metrics.observe(
                    f"engine_mem.{engine}", unit.mem_peak_b
                )

    def note(self, name: str, value: str) -> None:
        self.notes[name] = str(value)

    # -- derived views -------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._started

    def phase_names(self) -> list[str]:
        """Phase names ordered by total self time, descending."""
        names = self.metrics.histogram_names(prefix="phase.")
        return sorted(
            (n[len("phase."):] for n in names),
            key=lambda n: -self.metrics.summary(f"phase.{n}")["total"],
        )

    def phase_total_s(self) -> float:
        """Sum of all phase self times across all units."""
        return sum(
            self.metrics.summary(name)["total"]
            for name in self.metrics.histogram_names(prefix="phase.")
        )

    def unit_wall_total_s(self) -> float:
        return sum(u.wall_s for u in self.units)

    def unaccounted_s(self) -> float:
        """Unit wall time not attributed to any phase span.

        Per-phase tables report span *self* times, so this is the
        reconciliation residual: wall minus instrumented time.  Small
        and positive in a healthy run (dispatch overhead, feasibility
        bookkeeping between spans).
        """
        return self.unit_wall_total_s() - self.phase_total_s()

    def has_memory(self) -> bool:
        """Whether any unit shipped memory telemetry (``--mem`` runs)."""
        return bool(self.metrics.summary("unit.mem_peak_b")["count"])

    def top_units(self, n: int) -> list[UnitTelemetry]:
        # Ties on wall time break by unit key so the slowest-units table
        # is byte-stable across reruns (sorted() is stable, but the
        # ingestion order of pool backends is completion order).
        return sorted(self.units, key=lambda u: (-u.wall_s, u.key))[:n]


_session: ContextVar[TelemetrySession | None] = ContextVar(
    "repro_obs_session", default=None
)


def current_session() -> TelemetrySession | None:
    """The active telemetry session, or ``None`` (the common case)."""
    return _session.get()


@contextmanager
def telemetry(
    clock: Callable[[], float] = time.perf_counter,
    *,
    capture_memory: bool = False,
) -> Iterator[TelemetrySession]:
    """Activate a telemetry session for the enclosed block.

    *capture_memory* opts in to per-phase tracemalloc/RSS capture
    (``--mem``); it costs real time, so it is never on by default.
    """
    session = TelemetrySession(clock, capture_memory=capture_memory)
    token = _session.set(session)
    try:
        yield session
    finally:
        _session.reset(token)
