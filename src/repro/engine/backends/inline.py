"""The zero-overhead serial backend.

Executes every unit in the calling process, in submission order, with
no pickling, no pool startup, and no thread handoff; each cell's graph
is built once and shared by its units.  This is the right
choice for grids of very small units (pool startup alone dominates
below ~5 ms/unit) and is what ``"auto"`` stays on until calibration
says otherwise.
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
