"""The zero-overhead serial backend.

Executes every unit in the calling process, in submission order, with
no pickling and no pool startup; each cell's graph is built once and
shared by its units.  This is what ``"auto"`` runs for one worker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from repro.engine.backends.base import ExecutionBackend

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.records import ResultRecord
    from repro.engine.spec import JobSpec
    from repro.obs.spans import UnitTelemetry

__all__ = ["InlineBackend"]


class InlineBackend(ExecutionBackend):
    """Serial in-process execution (no pool, no pickling)."""

    name = "inline"

    def run(
        self, pending: Sequence[tuple[int, "JobSpec"]]
    ) -> Iterator[tuple[int, "ResultRecord", "UnitTelemetry | None"]]:
        from repro.engine.executor import cells, execute_cell

        for cell in cells(pending):
            yield from execute_cell(cell)
