"""Zero-dependency span recording for per-unit phase profiling.

A *span* is one timed phase of a work unit's execution — graph build,
simulate, a measure, the optimum computation.  Spans are collected by a
:class:`SpanRecorder` installed for the duration of one unit
(:func:`recording`); instrumentation points call the module-level
:func:`span` context manager, which is a **no-op fast path** when no
recorder is installed: one :class:`~contextvars.ContextVar` read and an
immediate yield, nothing allocated, nothing timed.  That is what keeps
always-on instrumentation off the hot path — the scheduler's round loop
is never touched per-message, only per-run.

Process safety: a recorder lives in a ContextVar, installed for one
unit at a time, and pool worker *processes* collect into their own
recorder and ship the result back to the parent inside the unit payload
as a :class:`UnitTelemetry` — telemetry never rides in the result record
itself, so cached bytes are byte-identical with telemetry on or off.

Whether instrumentation should collect at all is a process-wide flag
(:func:`set_collection` / :func:`collection_enabled`): the executor
raises it while a telemetry session is active, and the process backend
ships it to pool workers in the unit payload.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.obs.memory import MemoryMeter, memory_collection_enabled

__all__ = [
    "Span",
    "SpanRecorder",
    "UnitTelemetry",
    "collection_enabled",
    "current_recorder",
    "recording",
    "set_collection",
    "span",
    "span_self_times",
]


@dataclass
class Span:
    """One timed phase: name, offset from unit start, duration, attrs."""

    name: str
    start_s: float
    duration_s: float = 0.0
    #: Index of the enclosing span in the recorder's list, or ``None``.
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Memory fields, populated only under ``--mem`` (see
    #: :mod:`repro.obs.memory`): net traced bytes allocated over the
    #: span, peak traced bytes live while it was open, and the process
    #: peak RSS observed at its close.  ``None`` → not captured, and the
    #: fields are omitted from the JSON form so traces without memory
    #: capture are byte-identical to pre-memory ones.
    mem_alloc_b: int | None = None
    mem_peak_b: int | None = None
    mem_rss_b: int | None = None

    def to_json_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "name": self.name,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
        }
        if self.parent is not None:
            data["parent"] = self.parent
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if self.mem_peak_b is not None:
            data["mem_alloc_b"] = self.mem_alloc_b
            data["mem_peak_b"] = self.mem_peak_b
            if self.mem_rss_b is not None:
                data["mem_rss_b"] = self.mem_rss_b
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            start_s=data["start_s"],
            duration_s=data["duration_s"],
            parent=data.get("parent"),
            attrs=dict(data.get("attrs", {})),
            mem_alloc_b=data.get("mem_alloc_b"),
            mem_peak_b=data.get("mem_peak_b"),
            mem_rss_b=data.get("mem_rss_b"),
        )


def span_self_times(spans: Sequence[Span]) -> list[float]:
    """Per-span *self* time: duration minus the direct children's time.

    Phase tables aggregate self time so nested spans (``optimum`` inside
    ``measure:quality``) are never double counted and per-phase sums
    reconcile with unit wall time.
    """
    child_total = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.duration_s
    return [
        max(0.0, s.duration_s - child)
        for s, child in zip(spans, child_total)
    ]


class SpanRecorder:
    """Collects one unit's spans and counters (single-threaded use)."""

    __slots__ = (
        "spans", "counters", "mem", "mem_peak_b", "rss_peak_b",
        "_clock", "_t0", "_stack",
    )

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        #: The unit's :class:`~repro.obs.memory.MemoryMeter` while memory
        #: capture is live (installed by :func:`recording`), else ``None``.
        self.mem: MemoryMeter | None = None
        self.mem_peak_b: int | None = None
        self.rss_peak_b: int | None = None
        self._clock = clock
        self._t0 = clock()
        self._stack: list[int] = []

    def open(self, name: str, attrs: Mapping[str, Any] | None = None) -> int:
        """Open a span; returns its index for :meth:`close`."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(
            name=name,
            start_s=self._clock() - self._t0,
            parent=parent,
            attrs=dict(attrs) if attrs else {},
        ))
        self._stack.append(index)
        if self.mem is not None:
            self.mem.on_open(self.spans[index])
        return index

    def close(self, index: int) -> None:
        s = self.spans[index]
        s.duration_s = (self._clock() - self._t0) - s.start_s
        # Defensive: close any child left open by a non-local exit.
        while self._stack and self._stack[-1] != index:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if self.mem is not None:
            self.mem.on_close(s)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (if any).

        This is how the runtime scheduler reports the engine name and
        round count onto the ``simulate`` span opened by the measure
        pipeline, without the pipeline having to know either.
        """
        if self._stack:
            self.spans[self._stack[-1]].attrs.update(attrs)

    def count(self, name: str, value: float = 1) -> None:
        """Increment a unit-scoped counter (merged into session metrics)."""
        self.counters[name] = self.counters.get(name, 0) + value

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._t0


_recorder: ContextVar[SpanRecorder | None] = ContextVar(
    "repro_obs_recorder", default=None
)

#: Process-wide collection switch (see the module docstring).  A plain
#: module global, not a ContextVar: it is the executor's setting for
#: every unit this process runs; pool workers get it in their payload.
_collection_enabled = False


def set_collection(enabled: bool) -> None:
    """Enable/disable telemetry collection in this process."""
    global _collection_enabled
    _collection_enabled = bool(enabled)


def collection_enabled() -> bool:
    """Whether unit execution should collect telemetry in this process."""
    return _collection_enabled


def current_recorder() -> SpanRecorder | None:
    """The recorder of the unit currently executing here, if any."""
    return _recorder.get()


@contextmanager
def recording(
    clock: Callable[[], float] = time.perf_counter,
    *,
    capture_memory: bool | None = None,
) -> Iterator[SpanRecorder]:
    """Install a fresh recorder for one unit's execution.

    *capture_memory* defaults to the process-wide flag
    (:func:`~repro.obs.memory.memory_collection_enabled`).  tracemalloc
    peaks are process state, so if another recorder's meter is already
    live (a nested :func:`recording`) this one records timing only.
    """
    rec = SpanRecorder(clock)
    if capture_memory is None:
        capture_memory = memory_collection_enabled()
    if capture_memory:
        rec.mem = MemoryMeter.acquire()
    token = _recorder.set(rec)
    try:
        yield rec
    finally:
        _recorder.reset(token)
        if rec.mem is not None:
            rec.mem_peak_b, rec.rss_peak_b = rec.mem.finish()
            rec.mem = None


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | None]:
    """Record a phase span — or do (almost) nothing when not recording.

    Yields the open :class:`Span` so callers can attach result-dependent
    attributes, or ``None`` on the no-op fast path.
    """
    rec = _recorder.get()
    if rec is None:
        yield None
        return
    index = rec.open(name, attrs)
    try:
        yield rec.spans[index]
    finally:
        rec.close(index)


@dataclass
class UnitTelemetry:
    """One computed work unit's telemetry, shippable across processes.

    This is what a worker sends back alongside the result record —
    *alongside*, never inside: records and their cached bytes stay
    byte-identical whether telemetry is collected or not.
    """

    key: str
    algorithm: str
    label: str
    measure: str
    wall_s: float
    worker: str
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: Peak traced bytes / peak RSS over the unit, only under ``--mem``.
    mem_peak_b: int | None = None
    rss_peak_b: int | None = None

    @classmethod
    def from_recorder(
        cls,
        rec: SpanRecorder,
        *,
        key: str,
        algorithm: str,
        label: str,
        measure: str,
        wall_s: float,
    ) -> "UnitTelemetry":
        return cls(
            key=key,
            algorithm=algorithm,
            label=label,
            measure=measure,
            wall_s=wall_s,
            worker=worker_id(),
            spans=rec.spans,
            counters=dict(rec.counters),
            mem_peak_b=rec.mem_peak_b,
            rss_peak_b=rec.rss_peak_b,
        )

    def phase_self_times(self) -> dict[str, float]:
        """Aggregate self time per phase name for this unit."""
        totals: dict[str, float] = {}
        for s, self_s in zip(self.spans, span_self_times(self.spans)):
            totals[s.name] = totals.get(s.name, 0.0) + self_s
        return totals

    def phase_mem_peaks(self) -> dict[str, int]:
        """Max traced-peak bytes per phase name (empty without --mem)."""
        peaks: dict[str, int] = {}
        for s in self.spans:
            if s.mem_peak_b is None:
                continue
            prev = peaks.get(s.name)
            if prev is None or s.mem_peak_b > prev:
                peaks[s.name] = s.mem_peak_b
        return peaks

    def engine(self) -> str | None:
        """The simulation engine this unit ran on, if annotated.

        The runtime scheduler annotates the ``simulate`` span with the
        engine name; per-engine aggregation (memory by engine) reads it
        back from here.
        """
        for s in self.spans:
            if s.name == "simulate" and "engine" in s.attrs:
                return str(s.attrs["engine"])
        return None

    def to_json_dict(self) -> dict[str, Any]:
        data = {
            "key": self.key,
            "algorithm": self.algorithm,
            "label": self.label,
            "measure": self.measure,
            "wall_s": round(self.wall_s, 9),
            "worker": self.worker,
            "spans": [s.to_json_dict() for s in self.spans],
            "counters": dict(self.counters),
        }
        if self.mem_peak_b is not None:
            data["mem_peak_b"] = self.mem_peak_b
            if self.rss_peak_b is not None:
                data["rss_peak_b"] = self.rss_peak_b
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "UnitTelemetry":
        return cls(
            key=data["key"],
            algorithm=data["algorithm"],
            label=data["label"],
            measure=data["measure"],
            wall_s=data["wall_s"],
            worker=data["worker"],
            spans=[Span.from_json_dict(s) for s in data.get("spans", ())],
            counters=dict(data.get("counters", {})),
            mem_peak_b=data.get("mem_peak_b"),
            rss_peak_b=data.get("rss_peak_b"),
        )


def worker_id() -> str:
    """Identify the executing worker: pid plus thread name."""
    return f"{os.getpid()}:{threading.current_thread().name}"
