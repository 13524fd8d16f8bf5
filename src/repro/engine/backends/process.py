"""The process-pool fan-out backend.

Each task is one cell (the units on one graph, built once in the
worker), submitted to a :class:`concurrent.futures.ProcessPoolExecutor`.
Workers receive plain spec dictionaries and resolve algorithm/graph/
measure names through the registry themselves, which keeps the fan-out
free of code pickling (and safe under both ``fork`` and ``spawn`` start
methods).  For plugins registered outside the built-in catalogue, each
payload carries the names of the registering modules so a ``spawn``
worker can re-import them — which is why plugins must register at
module import time.

A worker that dies mid-cell (the OOM killer, a signal) breaks the pool.
The backend then yields every cell that finished, so they reach the
write-through cache, and raises :class:`~repro.exceptions.
WorkerCrashedError` naming the cells that did not; a re-run computes
only those.
"""

from __future__ import annotations

import importlib
import logging
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.engine.backends.base import ExecutionBackend
from repro.exceptions import WorkerCrashedError
from repro.registry.algorithms import get_algorithm
from repro.registry.families import get_family
from repro.registry.measures import get_measure

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.records import ResultRecord
    from repro.engine.spec import JobSpec
    from repro.obs.spans import UnitTelemetry

__all__ = ["ProcessBackend"]

logger = logging.getLogger(__name__)


def _plugin_modules(units: Iterable["JobSpec"]) -> tuple[str, ...]:
    """Modules whose import (re-)registers the units' registry entries.

    Under the ``spawn`` start method a worker process starts with a
    fresh interpreter: the built-in catalogue reloads lazily, but
    plugins registered by user code would be missing.  Shipping the
    registering modules' names lets workers re-import them.  Built-ins
    and ``__main__`` are excluded (the registry loader and
    multiprocessing itself already handle those), as are the algorithms
    of units whose measure never resolves one (figure units).
    """
    modules: set[str] = set()
    for unit in units:
        measure = get_measure(unit.measure)
        if measure.uses_algorithm:
            modules.add(get_algorithm(unit.algorithm).origin)
        family = get_family(unit.graph.family)
        modules.add(getattr(family.build, "__module__", "") or "")
        modules.add(type(measure).__module__)
    return tuple(sorted(
        m for m in modules
        if m and m != "__main__" and not m.startswith("repro.")
    ))


def _worker(
    payload: tuple[
        list[tuple[int, dict[str, Any]]], tuple[str, ...], bool, bool
    ]
) -> list[tuple[int, dict[str, Any], dict[str, Any] | None]]:
    from repro.engine.executor import execute_cell
    from repro.engine.spec import JobSpec
    from repro.obs.memory import set_memory_collection
    from repro.obs.spans import set_collection

    cell, plugin_modules, collect_telemetry, collect_mem = payload
    # The parent's telemetry switch doesn't exist in a ``spawn`` worker
    # (fresh interpreter) and may be stale in a ``fork`` one, so every
    # payload carries it (the memory switch rides along the same way).
    # Telemetry rides back as a plain dict next to the record dict —
    # never inside it.
    set_collection(collect_telemetry)
    set_memory_collection(collect_mem)
    for module in plugin_modules:
        try:
            importlib.import_module(module)
        except Exception:
            # If the plugin truly cannot be re-created here, resolution
            # below fails with the registry's name-listing error.
            logger.warning(
                "could not re-import plugin module %r in worker", module
            )
    units = [
        (index, JobSpec.from_json_dict(spec_dict))
        for index, spec_dict in cell
    ]
    return [
        (
            index,
            record.to_json_dict(),
            telemetry.to_json_dict() if telemetry is not None else None,
        )
        for index, record, telemetry in execute_cell(units)
    ]


class ProcessBackend(ExecutionBackend):
    """Shard cells across a ``concurrent.futures`` process pool."""

    name = "process"

    def __init__(self, workers: int = 1):
        self.workers = max(1, workers)

    def describe(self) -> str:
        return f"process(workers={self.workers})"

    def run(
        self, pending: Sequence[tuple[int, "JobSpec"]]
    ) -> Iterator[tuple[int, "ResultRecord", "UnitTelemetry | None"]]:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine.executor import cells, execute_cell
        from repro.engine.records import ResultRecord
        from repro.obs.memory import memory_collection_enabled
        from repro.obs.spans import UnitTelemetry, collection_enabled

        tasks = list(cells(pending))
        if self.workers == 1 or len(tasks) <= 1:
            # A pool of one (or for one cell) is pure overhead.
            for cell in tasks:
                yield from execute_cell(cell)
            return
        plugins = _plugin_modules(spec for cell in tasks for _, spec in cell)
        collect = collection_enabled()
        collect_mem = memory_collection_enabled()
        pool = ProcessPoolExecutor(min(self.workers, len(tasks)))
        try:
            futures = {
                pool.submit(_worker, (
                    [(index, spec.to_json_dict()) for index, spec in cell],
                    plugins, collect, collect_mem,
                )): cell[0][1].graph.label()
                for cell in tasks
            }
            crash: BrokenProcessPool | None = None
            lost: list[str] = []
            for future in as_completed(futures):
                try:
                    results = future.result()
                except BrokenProcessPool as exc:
                    # Keep draining: cells that finished before the
                    # crash still reach the caller (and its cache).
                    crash = exc
                    lost.append(futures[future])
                    continue
                for index, record_dict, telemetry_dict in results:
                    yield (
                        index,
                        ResultRecord.from_json_dict(record_dict),
                        UnitTelemetry.from_json_dict(telemetry_dict)
                        if telemetry_dict is not None else None,
                    )
            if crash is not None:
                raise WorkerCrashedError(
                    f"a pool worker died; {len(lost)} cell(s) did not "
                    f"finish: {', '.join(sorted(lost))}"
                ) from crash
        finally:
            # Drop the queued cells so an error in a worker or in the
            # caller, or a closed generator, waits only for the cells
            # already running.
            pool.shutdown(cancel_futures=True)
