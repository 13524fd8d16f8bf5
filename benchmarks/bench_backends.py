"""Execution-backend smoke: inline must beat process fan-out on tiny units.

Pool startup is a fixed tax (starting the worker processes, then each
worker's first imports); on a grid of sub-millisecond units it dominates
the whole run, which is why the engine keeps an inline backend and why
``auto`` runs inline for one worker.  Each benchmark times one backend
over the same tiny grid and asserts the determinism contract (identical
records everywhere).
"""

from __future__ import annotations

import time

import pytest

from repro.api import run_sweep
from repro.engine import SweepGrid

from conftest import emit

TINY = SweepGrid(
    name="bench-backends",
    algorithms=("port_one", "bounded_degree"),
    family="regular",
    degrees=(2, 3),
    sizes=(12, 16),
    seeds=2,
    optimum="none",  # keep units tiny
)

BASELINE = [r.canonical() for r in run_sweep(TINY, backend="inline").records]


@pytest.mark.parametrize("backend", ["inline", "process", "auto"])
def test_backend(benchmark, backend):
    report = benchmark.pedantic(
        lambda: run_sweep(TINY, workers=2, backend=backend),
        rounds=3, iterations=1,
    )
    assert [r.canonical() for r in report.records] == BASELINE


def test_inline_beats_process_on_tiny_units():
    """On a grid of tiny units, pool startup makes the process backend
    strictly slower than zero-overhead serial execution."""
    timings = {}
    for backend in ("inline", "process"):
        best = min(
            _timed(lambda: run_sweep(TINY, workers=2, backend=backend))
            for _ in range(3)
        )
        timings[backend] = best
    emit(
        "backend smoke (tiny units, best of 3): "
        + ", ".join(f"{k}={v * 1000:.1f} ms" for k, v in timings.items())
    )
    assert timings["inline"] < timings["process"]


def _timed(thunk) -> float:
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started
