"""The thread-pool backend.

Shares the interpreter with the caller, so pure-Python CPU-bound units
gain nothing under the GIL — but measure-bound units that release the
GIL (C-extension graph kernels, I/O-ish measures, subprocess-backed
solvers) overlap without any of the process backend's costs: no
interpreter spawn, no catalogue reload, no spec serialisation, and
plugins registered in this process are simply visible.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.engine.backends.base import ExecutionBackend

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.records import ResultRecord
    from repro.engine.spec import JobSpec
    from repro.obs.spans import UnitTelemetry

__all__ = ["ThreadBackend"]


class ThreadBackend(ExecutionBackend):
    """Fan cells across an in-process thread pool."""

    name = "thread"

    def __init__(self, workers: int = 1):
        self.workers = max(1, workers)

    def describe(self) -> str:
        return f"thread(workers={self.workers})"

    def run(
        self, pending: Sequence[tuple[int, "JobSpec"]]
    ) -> Iterator[tuple[int, "ResultRecord", "UnitTelemetry | None"]]:
        from repro.engine.executor import cells, execute_cell

        tasks = list(cells(pending))
        if not tasks:
            return
        # Note: worker threads see the executor's process-wide telemetry
        # switch, not its contextvars; each unit installs its own span
        # recorder, so units never share one.  One task is one cell, so
        # a thread holds at most one cell's graph at a time.
        with ThreadPoolExecutor(
            max_workers=min(self.workers, len(tasks))
        ) as pool:
            futures = [pool.submit(list, execute_cell(cell)) for cell in tasks]
            for future in as_completed(futures):
                yield from future.result()
