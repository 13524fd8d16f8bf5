"""E12 — average-case approximation quality on random graphs.

The worst-case-tight algorithms do much better than their guarantees on
typical inputs; the identified baseline shows what unique IDs buy.  All
optima are exact (small instances), so the ratios are true ratios.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import api
from repro.experiments.sweeps import average_case_sweep, format_average_case

from conftest import emit


@pytest.mark.parametrize("name", ["port_one", "bounded_degree", "ids_greedy"])
def test_single_run_regular(benchmark, name):
    graph = api.graph("regular", seed=4, d=4, n=12)
    record = benchmark(api.run_one, name, graph, label="d=4 n=12")
    assert record.ratio >= 1


@pytest.mark.parametrize("name", ["regular_odd", "bounded_degree"])
def test_single_run_odd_regular(benchmark, name):
    graph = api.graph("regular", seed=3, d=3, n=12)
    record = benchmark(api.run_one, name, graph, label="d=3 n=12")
    assert record.ratio >= 1


@pytest.mark.parametrize("delta", (3, 4))
def test_single_run_bounded(benchmark, delta):
    graph = api.graph("bounded", seed=delta, n=12, max_degree=delta)
    record = benchmark(
        api.run_one, "bounded_degree", graph, label=f"Δ={delta}"
    )
    k = max(delta, 2) // 2
    assert record.ratio <= Fraction(4) - Fraction(1, k)


def test_print_sweep(benchmark):
    rows = benchmark.pedantic(
        average_case_sweep,
        kwargs={
            "regular_degrees": (3, 4, 5),
            "regular_size": 12,
            "bounded_deltas": (3, 4),
            "bounded_size": 12,
            "instances": 3,
        },
        rounds=1,
        iterations=1,
    )
    emit(format_average_case(rows))
    assert all(row.ratio >= 1 for row in rows)
    assert all(row.optimum_exact for row in rows)
