"""Per-phase memory telemetry: tracemalloc windows plus peak RSS.

Memory capture is **opt-in** (``--mem``) and rides the same plumbing as
span timing: a :class:`MemoryMeter` is attached to the unit's
:class:`~repro.obs.spans.SpanRecorder` while the process-wide
:func:`memory_collection_enabled` flag is up, and every span open/close
becomes a *window boundary*.  At each boundary the meter reads
``tracemalloc.get_traced_memory()``, folds the window's peak into every
currently-open span, and calls ``tracemalloc.reset_peak()`` — so a
nested span's transient spike is charged to *all* its open ancestors
(each really did have that many live bytes during its lifetime), and a
span's ``mem_peak_b`` is a true peak over its own duration, not just a
start/end delta.

Why opt-in: ``tracemalloc`` hooks every allocation, which costs far more
than the <5% telemetry-overhead budget the timing path is gated on.
With the flag down this module contributes nothing — the recorder's
``mem`` slot stays ``None`` and span open/close skip one attribute test.

numpy registers its buffer allocations with tracemalloc
(``PyTraceMalloc_Track``), so the vector engine's struct-of-arrays
footprint shows up here like any Python allocation.

Peak RSS comes from ``resource.getrusage`` — a process-lifetime
high-water mark, monotone across units.  It answers "how big did the
worker get", complementing tracemalloc's "who allocated what".
"""

from __future__ import annotations

import sys
import tracemalloc
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.spans import Span

__all__ = [
    "MemoryMeter",
    "memory_collection_enabled",
    "rss_peak_bytes",
    "set_memory_collection",
]


#: Process-wide opt-in switch, mirroring ``spans.set_collection``: the
#: executor raises it while a ``capture_memory`` session is active and
#: the process backend ships it to pool workers in the unit payload.
_memory_enabled = False


def set_memory_collection(enabled: bool) -> None:
    """Enable/disable per-phase memory capture in this process."""
    global _memory_enabled
    _memory_enabled = bool(enabled)


def memory_collection_enabled() -> bool:
    """Whether unit execution should capture memory in this process."""
    return _memory_enabled


def rss_peak_bytes() -> int | None:
    """The process-lifetime peak resident set size, in bytes.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; ``None``
    where the ``resource`` module is unavailable (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return int(peak)
    return int(peak) * 1024


#: tracemalloc peaks are process-global state, so only one meter may be
#: live per process at a time.  A recording opened while another's meter
#: is live (a nested :func:`~repro.obs.spans.recording`) skips memory
#: capture (its spans simply carry no memory fields) — timing telemetry
#: is unaffected.
_meter_active = False


class MemoryMeter:
    """Windows ``tracemalloc`` between span boundaries for one unit."""

    __slots__ = ("_owns_tracing", "_stack", "unit_peak_b")

    @classmethod
    def acquire(cls) -> "MemoryMeter | None":
        """Claim the process's meter slot, or ``None`` if already taken."""
        global _meter_active
        if _meter_active:
            return None
        _meter_active = True
        return cls()

    def __init__(self) -> None:
        self._owns_tracing = not tracemalloc.is_tracing()
        if self._owns_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        #: ``(span, traced bytes at open)`` for every open span.
        self._stack: list[tuple["Span", int]] = []
        self.unit_peak_b = tracemalloc.get_traced_memory()[0]

    def _flush_window(self) -> int:
        """Fold the current window's peak into every open span.

        Returns the *current* traced byte count (the next window's
        baseline).  ``reset_peak`` pins the peak to current, so every
        window's peak is at least its starting level.
        """
        current, peak = tracemalloc.get_traced_memory()
        if peak > self.unit_peak_b:
            self.unit_peak_b = peak
        for open_span, _ in self._stack:
            if open_span.mem_peak_b is None or peak > open_span.mem_peak_b:
                open_span.mem_peak_b = peak
        tracemalloc.reset_peak()
        return current

    def on_open(self, span: "Span") -> None:
        current = self._flush_window()
        self._stack.append((span, current))

    def on_close(self, span: "Span") -> None:
        current = self._flush_window()
        rss = rss_peak_bytes()
        # Pop through children left open by a non-local exit, mirroring
        # the recorder's own defensive close.
        while self._stack:
            open_span, opened_at = self._stack.pop()
            open_span.mem_alloc_b = current - opened_at
            if open_span.mem_peak_b is None or current > open_span.mem_peak_b:
                open_span.mem_peak_b = current
            open_span.mem_rss_b = rss
            if open_span is span:
                break

    def finish(self) -> tuple[int, int | None]:
        """Release the meter; returns ``(unit peak bytes, peak RSS)``."""
        global _meter_active
        current = self._flush_window()
        rss = rss_peak_bytes()
        while self._stack:  # spans left open by a non-local exit
            open_span, opened_at = self._stack.pop()
            open_span.mem_alloc_b = current - opened_at
            open_span.mem_rss_b = rss
        if self._owns_tracing:
            tracemalloc.stop()
        _meter_active = False
        return self.unit_peak_b, rss
