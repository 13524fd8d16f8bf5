"""Grid execution over pluggable backends, with write-through caching.

:func:`execute_unit` turns one :class:`~repro.engine.spec.JobSpec` into a
:class:`~repro.engine.records.ResultRecord`; :func:`run_units` maps a
whole grid, serving already-computed units from the content-addressed
cache and handing the rest to an execution backend
(:mod:`repro.engine.backends`): inline serial or a process pool.  The
``"auto"`` default is inline for one worker and the pool for more.

The backends' unit of work is the *cell*: the units that share one
:class:`~repro.engine.spec.GraphSpec` (a sweep's algorithms on one
graph).  :func:`run_units` orders its cache misses so each cell's units
are adjacent, and :func:`execute_cell` builds the cell's graph once,
runs every unit on it, and drops it before the next cell is built.  A
graph is a pure function of its spec, and the graph's derived tables
(compiled arrays, blossom matching, exact optimum) are memoised on it,
so sharing changes wall time only: records and cache entries stay one
per unit.

Determinism contract: a record depends only on its spec — never on the
backend, worker count, execution order, or wall clock — so
``--backend inline`` and ``--backend process --workers 4`` produce
byte-identical results.
"""

from __future__ import annotations

import itertools
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO

from repro.engine.backends.base import ExecutionBackend, resolve_backend
from repro.engine.cache import GcReport, ResultCache, cache_key
from repro.engine.measures import build_graph, default_execute
from repro.engine.records import ResultRecord, ResultStore
from repro.engine.spec import GraphSpec, JobSpec
from repro.obs.memory import set_memory_collection
from repro.obs.session import TelemetrySession, current_session
from repro.obs.spans import (
    UnitTelemetry,
    collection_enabled,
    recording,
    set_collection,
    span,
)
from repro.registry.measures import Measure, get_measure

__all__ = [
    "ExecutionReport",
    "ProgressPrinter",
    "cells",
    "execute_cell",
    "execute_unit",
    "run_units",
]


# ---------------------------------------------------------------------------
# Unit and cell execution
# ---------------------------------------------------------------------------


def execute_unit(spec: JobSpec) -> ResultRecord:
    """Execute one work unit in-process, without telemetry.

    Dispatches to the unit's registered measure
    (:mod:`repro.registry.measures`); the content address doubles as the
    source of the unit's RNG seed, so randomised algorithms are exactly
    as reproducible as deterministic ones.
    """
    key = cache_key(spec)
    return get_measure(spec.measure).execute(spec, key)


def cells(
    pending: Iterable[tuple[int, JobSpec]],
) -> Iterator[list[tuple[int, JobSpec]]]:
    """Split *pending* into cells: runs of adjacent units on one graph.

    :func:`run_units` orders its cache misses so that every cell is a
    single run; units handed over in another order still execute
    correctly, with less sharing.
    """
    for _, cell in itertools.groupby(pending, key=lambda item: item[1].graph):
        yield list(cell)


def execute_cell(
    cell: Iterable[tuple[int, JobSpec]],
) -> Iterator[tuple[int, ResultRecord, UnitTelemetry | None]]:
    """Execute one cell's units in order, building their graph once.

    Yields ``(index, record, telemetry)`` per unit, like a backend.  The
    first unit on the shared pipeline builds the graph, so its wall time
    and telemetry carry the build; every later unit reuses it and counts
    ``graph_build.shared``.  Measures that override
    :meth:`~repro.registry.measures.Measure.execute` build their own
    graph.  The graph is released when the generator finishes (or is
    closed), before the caller builds the next cell's.
    """
    graph = None
    for index, spec in cell:
        started = time.perf_counter()
        with (recording() if collection_enabled() else nullcontext()) as rec:
            with span("resolve", measure=spec.measure):
                key = cache_key(spec)
                measure = get_measure(spec.measure)
            if type(measure).execute is not Measure.execute:
                record = measure.execute(spec, key)
            else:
                if graph is None:
                    graph = build_graph(spec.graph)
                elif rec is not None:
                    rec.count("graph_build.shared")
                record = default_execute(measure, spec, key, graph)
        telemetry = None
        if rec is not None:
            telemetry = UnitTelemetry.from_recorder(
                rec,
                key=key,
                algorithm=spec.algorithm,
                label=spec.graph.label(),
                measure=spec.measure,
                wall_s=time.perf_counter() - started,
            )
        yield index, record, telemetry


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------


class ProgressPrinter:
    """Throttled progress/ETA lines for long sweeps (stderr by default)."""

    def __init__(
        self,
        total: int,
        *,
        label: str = "sweep",
        stream: TextIO | None = None,
        min_interval: float = 0.5,
    ):
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._started = time.monotonic()
        self._last_printed = 0.0

    def __call__(self, done: int, cached: int) -> None:
        now = time.monotonic()
        if done < self.total and now - self._last_printed < self.min_interval:
            return
        self._last_printed = now
        elapsed = now - self._started
        computed = done - cached
        remaining = self.total - done
        if computed > 0 and remaining > 0:
            eta = f"{elapsed / computed * remaining:.1f}s"
        elif remaining > 0:
            eta = "?"
        else:
            eta = "0s"
        if computed > 0 and elapsed > 0:
            rate = f" | {computed / elapsed:.1f} units/s"
        else:
            # All served from cache (or nothing done yet): a computed-
            # unit throughput would be meaningless, so show none.
            rate = ""
        self.stream.write(
            f"[{self.label}] {done}/{self.total} units "
            f"({cached} cached) | elapsed {elapsed:.1f}s{rate} | eta {eta}\n"
        )
        self.stream.flush()


@dataclass
class ExecutionReport:
    """The outcome of one grid execution."""

    store: ResultStore
    cache_hits: int
    computed: int
    #: What ran, e.g. ``"inline"`` or ``"process(workers=4)"``.
    backend: str = "inline"
    #: The post-sweep cache eviction outcome, when a size cap was set.
    gc: GcReport | None = None
    #: Wall-clock duration of the whole :func:`run_units` call.
    wall_time_s: float = 0.0
    #: The telemetry session that was active during execution, if any.
    telemetry: TelemetrySession | None = None

    @property
    def records(self) -> list[ResultRecord]:
        return self.store.records

    @property
    def total(self) -> int:
        return self.cache_hits + self.computed

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def cache_line(self) -> str:
        return (
            f"cache: {self.cache_hits} hit(s), {self.computed} computed "
            f"({self.hit_rate:.1%} hit rate)"
        )

    def backend_line(self) -> str:
        return f"backend: {self.backend}"

    def gc_line(self) -> str:
        if self.gc is None:
            return "cache gc: not requested"
        return f"cache gc: {self.gc.format()}"


def run_units(
    units: Iterable[JobSpec],
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
    backend: ExecutionBackend | str | None = None,
    cache_max_bytes: int | None = None,
) -> ExecutionReport:
    """Execute *units*, in order, and return their records.

    Cached units are served from *cache* (write-through for the rest);
    the remainder run on *backend* — a name from
    :data:`~repro.engine.backends.BACKEND_NAMES`, a ready-made
    :class:`ExecutionBackend`, or ``None`` for ``"auto"`` (inline for one
    worker, a pool of *workers* processes otherwise).  Results are
    reassembled into submission order, so the returned records are
    identical for every backend and worker count.

    *cache_max_bytes* is the opt-in gc automation: after execution the
    cache is evicted down to the cap with :meth:`ResultCache.gc` —
    write-age LRU, with every key this run used (cache hits included)
    refreshed first, so this run's records are the last to go.  The
    eviction outcome is reported on :attr:`ExecutionReport.gc`.
    """
    started = time.perf_counter()
    session = current_session()
    units = list(units)
    keys = [cache_key(unit) for unit in units]
    records: dict[int, ResultRecord] = {}

    if cache is not None:
        for index, key in enumerate(keys):
            cached = cache.get(key)
            if cached is not None:
                records[index] = cached
    hits = len(records)
    missing = [i for i in range(len(units)) if i not in records]
    # One cell per graph: a stable sort by each graph's first appearance
    # makes every cell adjacent and keeps submission order inside it.
    first_seen: dict[GraphSpec, int] = {}
    for i in missing:
        first_seen.setdefault(units[i].graph, len(first_seen))
    missing.sort(key=lambda i: first_seen[units[i].graph])
    done = hits
    if progress is not None:
        progress(done, hits)

    resolved = resolve_backend(backend, workers=workers)
    if session is not None:
        # Flip the process-wide collection switch for the duration of
        # the run: the session lives in a ContextVar of this process, so
        # it can't be a pool worker's signal; the process backend
        # forwards the flag to its workers in the unit payload.
        set_collection(True)
        set_memory_collection(session.capture_memory)
    try:
        pending = [(i, units[i]) for i in missing]
        for index, record, unit_telemetry in resolved.run(pending):
            records[index] = record
            if cache is not None:
                cache.put(keys[index], record.to_json_dict())
            if session is not None and unit_telemetry is not None:
                session.add_unit(unit_telemetry)
            done += 1
            if progress is not None:
                progress(done, hits)
    finally:
        if session is not None:
            set_collection(False)
            set_memory_collection(False)

    gc_report = None
    if cache is not None and cache_max_bytes is not None:
        # Cache hits don't refresh mtime, so a fully warm sweep's records
        # would otherwise be the *oldest* and evicted first.  Touch every
        # key this run used before evicting by write-age LRU.
        for key in keys:
            cache.touch(key)
        gc_report = cache.gc(max_bytes=cache_max_bytes)

    if session is not None:
        session.note("backend", resolved.describe())

    store = ResultStore(records[i] for i in range(len(units)))
    return ExecutionReport(
        store=store,
        cache_hits=hits,
        computed=len(missing),
        backend=resolved.describe(),
        gc=gc_report,
        wall_time_s=time.perf_counter() - started,
        telemetry=session,
    )
