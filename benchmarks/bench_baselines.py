"""Baseline-subsystem smoke: comparison units are engine citizens.

The repro.baselines algorithms are only useful if they behave exactly
like built-in units inside the engine: content-addressed, cacheable,
and byte-reproducible (randomised rounding included — its coins derive
from the unit's content hash).  Each check here doubles as a benchmark
of the comparison grid, and the cached re-run asserts the 100% hit
rate that makes ``repro-eds compare`` cheap to iterate on.
"""

from __future__ import annotations

import time

from repro.api import run_sweep
from repro.engine import ResultCache, SweepGrid

from conftest import emit

COMPARISON_GRID = SweepGrid(
    name="bench-baselines",
    algorithms=(
        "greedy_mds_line", "lp_rounding", "forest_dds", "central_optimal",
    ),
    family="regular",
    degrees=(3, 4),
    sizes=(12, 16),
    seeds=2,
    measure="comparison",
    optimum="auto",
)


def test_baseline_units_byte_reproducible():
    """Re-executing the grid reproduces every record byte for byte."""
    first = run_sweep(COMPARISON_GRID, backend="inline")
    second = run_sweep(COMPARISON_GRID, backend="process", workers=2)
    assert (
        [r.canonical() for r in first.records]
        == [r.canonical() for r in second.records]
    )
    emit(
        f"baseline grid: {len(first.records)} units byte-identical "
        "across inline and process backends"
    )


def test_baseline_units_engine_cacheable(tmp_path_factory):
    """A second run over the same cache is served entirely from disk."""
    cache = ResultCache(tmp_path_factory.mktemp("baseline-cache"))
    cold_started = time.perf_counter()
    cold = run_sweep(COMPARISON_GRID, cache=cache, backend="inline")
    cold_elapsed = time.perf_counter() - cold_started
    warm_started = time.perf_counter()
    warm = run_sweep(COMPARISON_GRID, cache=cache, backend="inline")
    warm_elapsed = time.perf_counter() - warm_started

    assert cold.computed == len(cold.records)
    assert warm.cache_hits == len(warm.records)
    assert warm.computed == 0
    assert (
        [r.canonical() for r in cold.records]
        == [r.canonical() for r in warm.records]
    )
    emit(
        f"baseline cache round-trip: cold {cold_elapsed * 1000:.1f} ms, "
        f"warm {warm_elapsed * 1000:.1f} ms "
        f"({warm.cache_hits}/{len(warm.records)} hits)"
    )
