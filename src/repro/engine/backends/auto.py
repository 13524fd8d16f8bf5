"""The self-calibrating backend: inline until fan-out pays for itself.

Process-pool startup is a fixed tax (interpreter spawn plus catalogue
reload per worker); for grids of sub-5 ms units it dominates the whole
run, while for expensive units it vanishes.  ``AutoBackend`` measures
instead of guessing: it executes the first few pending units inline
with a wall clock around each, and fans the remainder out to the
process backend only when the observed per-unit cost clears the
threshold (and there is enough work left to amortise the pool).  It
runs cell by cell like the inline backend, so the clock still reads one
unit at a time and the first unit of a cell pays for the cell's graph.

Grids are not homogeneous — a sweep ordered cheapest-first (small n
before large) would fool a probe-once policy into serial execution just
as the expensive tail arrives.  So the inline decision is provisional:
every unit stays on the clock, and the first unit that itself clears
the threshold re-escalates the rest of the batch to the fan-out
backend.

The calibration affects scheduling only — records depend purely on
their specs — so every decision path yields byte-identical results.
The decision itself is recorded on the backend (and surfaced through
:class:`~repro.engine.executor.ExecutionReport`) so sweeps can report
why they ran the way they did.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.engine.backends.base import ExecutionBackend
from repro.engine.backends.inline import InlineBackend
from repro.engine.backends.process import ProcessBackend

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.records import ResultRecord
    from repro.engine.spec import JobSpec
    from repro.obs.spans import UnitTelemetry

logger = logging.getLogger(__name__)

__all__ = ["AutoBackend", "DEFAULT_FANOUT_THRESHOLD", "PROBE_UNITS"]

#: Fan out only above this measured per-unit cost (seconds).
#: Re-derived for the compiled simulation core (E19): spawning a
#: 2-worker pool costs ~40 ms of fixed tax, so with a typical ≥ 20-unit
#: remainder and half the work moving off-process, fan-out starts
#: paying at ~40 / (20 × ½) ≈ 4 ms/unit.  The old 10 ms threshold was
#: calibrated when the dict-based scheduler kept per-unit costs high;
#: compiled units are several times cheaper, and keeping the old bar
#: would hold profitably parallel grids inline.
DEFAULT_FANOUT_THRESHOLD = 0.005

#: How many units the calibration probe times inline.
PROBE_UNITS = 3


class AutoBackend(ExecutionBackend):
    """Calibrate on the first few units; fan out when (or once) slow.

    *clock* and *fanout* exist for tests: a fake clock makes units look
    arbitrarily slow without sleeping, and an injected fan-out backend
    observes the hand-off without spawning processes.
    """

    name = "auto"

    def __init__(
        self,
        workers: int = 1,
        *,
        threshold: float = DEFAULT_FANOUT_THRESHOLD,
        probe: int = PROBE_UNITS,
        clock: Callable[[], float] = time.perf_counter,
        fanout: ExecutionBackend | None = None,
    ):
        self.workers = max(1, workers)
        self.threshold = threshold
        self.probe = max(1, probe)
        self.clock = clock
        self.fanout = (
            fanout if fanout is not None else ProcessBackend(self.workers)
        )
        self.decision = ""
        self._resolved = "inline"

    def describe(self) -> str:
        return f"auto:{self._resolved}"

    def _commit(self, resolved: str, decision: str) -> None:
        self._resolved = resolved
        self.decision = decision
        logger.debug("auto backend: %s", decision)

    def _measure_hint(self, pending: Sequence[tuple[int, "JobSpec"]]) -> str:
        """The units' unanimous scheduling hint, or ``""`` if mixed/none.

        Measures that know their units' cost profile advertise it via
        :attr:`~repro.registry.measures.Measure.preferred_backend`
        (e.g. ``comparison`` grids of tiny units hint ``inline``); a
        unanimous hint replaces calibration entirely.
        """
        from repro.registry.measures import get_measure

        hints = {
            get_measure(spec.measure).preferred_backend
            for _, spec in pending
        }
        if len(hints) == 1:
            return next(iter(hints))
        return ""

    def run(
        self, pending: Sequence[tuple[int, "JobSpec"]]
    ) -> Iterator[tuple[int, "ResultRecord", "UnitTelemetry | None"]]:
        pending = list(pending)
        hint = self._measure_hint(pending) if pending else ""
        if hint == "inline":
            self._commit(
                "inline",
                f"measure hint: all {len(pending)} unit(s) prefer inline "
                "— calibration skipped",
            )
            if self.workers <= 1:
                yield from InlineBackend().run(pending)
            else:
                # The hint skips the probe, not the safety net: a unit
                # that itself clears the threshold still re-escalates.
                yield from self._inline(pending, calibrate=False)
            return
        if hint in ("process", "thread") and self.workers > 1:
            if hint == "thread":
                from repro.engine.backends.thread import ThreadBackend

                fanout: ExecutionBackend = ThreadBackend(self.workers)
            else:
                fanout = self.fanout
            self._commit(
                fanout.describe(),
                f"measure hint: all {len(pending)} unit(s) prefer "
                f"{hint} — fanning out without calibration",
            )
            yield from fanout.run(pending)
            return
        if self.workers <= 1 or len(pending) <= self.probe + 1:
            self._commit(
                "inline",
                "no fan-out possible "
                f"(workers={self.workers}, pending={len(pending)})"
                if self.workers <= 1
                else f"{len(pending)} pending unit(s) — too few to "
                "amortise a pool",
            )
            yield from InlineBackend().run(pending)
            return
        yield from self._inline(pending, calibrate=True)

    def _inline(
        self, pending: Sequence[tuple[int, "JobSpec"]], *, calibrate: bool
    ) -> Iterator[tuple[int, "ResultRecord", "UnitTelemetry | None"]]:
        """Inline execution cell by cell, every unit on the clock.

        With *calibrate*, the first :attr:`probe` units decide by their
        mean cost between fanning the rest out and staying inline.
        Staying is provisional — grids ordered cheapest-first would
        otherwise fool the probe — so the first later unit that itself
        clears the threshold re-escalates the rest.  A hand-off in the
        middle of a cell drops its graph, and the rest of that cell
        reaches the fan-out as a smaller cell.
        """
        from repro.engine.executor import cells, execute_cell

        probe = self.probe if calibrate else 0
        done = 0
        probed_s = 0.0
        for cell in cells(pending):
            results = execute_cell(cell)
            for _ in cell:
                started = self.clock()
                item = next(results)
                cost = self.clock() - started
                yield item
                done += 1
                left = len(pending) - done
                if done <= probe:
                    probed_s += cost
                    escalate = done == probe and self._probe_verdict(
                        probed_s / probe, left
                    )
                else:
                    escalate = self._re_escalate(cost, left)
                if escalate:
                    results.close()
                    yield from self.fanout.run(pending[done:])
                    return

    def _probe_verdict(self, per_unit: float, left: int) -> bool:
        """Commit the probe's decision; whether to fan the rest out."""
        fan_out = per_unit >= self.threshold
        note = (
            f"probed {self.probe} unit(s): {per_unit * 1000:.1f} ms/unit"
            f" {'≥' if fan_out else '<'} {self.threshold * 1000:.1f} ms "
            "threshold → "
        )
        if fan_out:
            self._commit(
                self.fanout.describe(),
                note + f"{self.fanout.describe()} for {left} unit(s)",
            )
        else:
            self._commit("inline", note + "staying inline")
        return fan_out

    def _re_escalate(self, cost: float, left: int) -> bool:
        """Whether a unit past the probe hands the rest to the fan-out."""
        if cost < self.threshold or left <= 1:
            return False
        self._commit(
            self.fanout.describe(),
            f"{self.decision}; re-escalated after a {cost * 1000:.1f} ms "
            f"unit → {self.fanout.describe()} for {left} unit(s)",
        )
        return True
