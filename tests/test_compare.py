"""Tests for the repro-eds compare experiment and its satellites.

The acceptance criteria under test:

* the comparison grid spans ≥ 3 baselines and ≥ 2 graph families and
  produces a deterministic side-by-side table;
* the table (records and CLI stdout) is byte-identical across
  backends, worker counts, and cached re-runs;
* cache gc automation (`--cache-max-size`) evicts after the sweep.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.baselines import BASELINE_ALGORITHMS
from repro.cli import main
from repro.engine import (
    GraphSpec,
    JobSpec,
    ResultCache,
    get_scenario,
    scenario_names,
)
from repro.experiments.compare import (
    COMPARE_ALGORITHMS,
    comparison_rows,
    comparison_units,
    format_comparison,
    run_comparison,
)


def small_units(**kwargs):
    defaults = dict(
        families=("regular", "bounded"), degrees=(3,), sizes=(8,), seeds=1
    )
    defaults.update(kwargs)
    return comparison_units(**defaults)


class TestGridExpansion:
    def test_defaults_cover_baselines_and_families(self):
        units = comparison_units()
        assert len(set(BASELINE_ALGORITHMS)
                   & {u.algorithm for u in units}) >= 3
        assert {u.graph.family for u in units} == {"regular", "bounded"}
        assert all(u.measure == "comparison" for u in units)

    def test_regular_odd_only_on_odd_regular_cells(self):
        units = comparison_units(degrees=(3, 4), sizes=(12,), seeds=1)
        odd = [u for u in units if u.algorithm == "regular_odd"]
        assert odd
        assert all(u.graph.family == "regular" for u in odd)
        assert all(dict(u.graph.params)["d"] % 2 == 1 for u in odd)

    def test_scenario_registered(self):
        assert "comparison" in scenario_names()
        grid = get_scenario("comparison")
        assert grid.measure == "comparison"
        assert set(grid.algorithms) == set(COMPARE_ALGORITHMS)
        assert grid.expand()

    def test_algorithm_override(self):
        units = small_units(algorithms=("port_one", "central_optimal"))
        assert {u.algorithm for u in units} == {
            "port_one", "central_optimal"
        }

    def test_explicitly_empty_algorithms_expand_to_nothing(self, capsys):
        # () must not silently fall back to the 7-algorithm default.
        assert small_units(algorithms=()) == []
        assert main([*TestCli.CLI, "--algorithms", ""]) == 2
        assert "zero feasible work units" in capsys.readouterr().err


class TestDeterminism:
    def test_rows_byte_identical_across_backends(self):
        outcomes = {
            backend: run_comparison(
                ("regular", "bounded"), (3,), (8,), 1,
                backend=backend, workers=2,
            )
            for backend in ("inline", "process", "auto")
        }
        tables = {
            backend: format_comparison(outcome.rows)
            for backend, outcome in outcomes.items()
        }
        assert len(set(tables.values())) == 1
        canonicals = {
            backend: [r.canonical() for r in outcome.execution.records]
            for backend, outcome in outcomes.items()
        }
        assert len({tuple(c) for c in canonicals.values()}) == 1

    def test_cached_rerun_identical(self, tmp_path):
        first = run_comparison(("regular",), (3,), (8,), 1,
                               cache=tmp_path, backend="inline")
        second = run_comparison(("regular",), (3,), (8,), 1,
                                cache=tmp_path, backend="process", workers=2)
        assert second.execution.cache_hits == len(second.units)
        assert second.execution.computed == 0
        assert format_comparison(first.rows) == format_comparison(second.rows)

    def test_rows_aggregate_by_family_and_algorithm(self):
        outcome = run_comparison(("regular",), (3,), (8, 10), 2,
                                 algorithms=("port_one", "central_optimal"),
                                 backend="inline")
        rows = comparison_rows(outcome.execution.records)
        assert [(r.family, r.algorithm) for r in rows] == [
            ("regular", "port_one"), ("regular", "central_optimal"),
        ]
        assert all(r.units == 4 for r in rows)
        anchor = rows[-1]
        assert anchor.mean_ratio == 1.0 and anchor.mean_messages == 0.0


class TestCli:
    CLI = ["compare", "--families", "regular", "--degrees", "3",
           "--sizes", "8", "--seeds", "1", "--quiet", "--no-cache"]

    def test_stdout_identical_across_backends(self, capsys):
        assert main([*self.CLI, "--backend", "inline"]) == 0
        inline_out = capsys.readouterr().out
        assert main([*self.CLI, "--backend", "process", "--workers", "2"]) == 0
        process_out = capsys.readouterr().out
        assert inline_out == process_out
        for name in ("port_one", "greedy_mds_line", "lp_rounding",
                     "forest_dds", "central_optimal"):
            assert name in inline_out

    def test_unknown_family_rejected(self, capsys):
        assert main(["compare", "--families", "petersen"]) == 2
        assert "unknown comparison families" in capsys.readouterr().err

    def test_unknown_algorithm_rejected(self, capsys):
        assert main([*self.CLI, "--algorithms", "nope"]) == 2
        assert "unknown algorithms" in capsys.readouterr().err

    def test_bad_cache_max_size_rejected(self, capsys):
        assert main([*self.CLI, "--cache-max-size", "many"]) == 2
        assert "cannot parse size" in capsys.readouterr().err

    def test_jsonl_written(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        assert main([*self.CLI, "--jsonl", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text().count("\n") > 0


class TestCacheGcAutomation:
    def test_run_sweep_evicts_to_cap(self, tmp_path):
        units = [
            JobSpec("port_one", GraphSpec.make("regular", seed=s, d=3, n=12))
            for s in range(6)
        ]
        report = api.run_sweep(units, cache=tmp_path, backend="inline",
                               cache_max_size="1KiB")
        assert report.gc is not None
        assert report.gc.removed > 0
        assert report.gc.kept_bytes <= 1024
        assert ResultCache(tmp_path).stats().total_bytes <= 1024

    def test_warm_run_records_survive_gc(self, tmp_path):
        import os
        import time

        sweep_a = [
            JobSpec("port_one", GraphSpec.make("regular", seed=s, d=3, n=12))
            for s in range(3)
        ]
        sweep_b = [
            JobSpec("port_one", GraphSpec.make("regular", seed=s, d=2, n=12))
            for s in range(3)
        ]
        cache = ResultCache(tmp_path)
        api.run_sweep(sweep_a, cache=cache, backend="inline")
        # Backdate A's records, then write B: without the touch pass a
        # warm capped re-run of A would evict its own working set.
        past = time.time() - 3600
        for key in list(cache.keys()):
            os.utime(cache.path_for(key), (past, past))
        api.run_sweep(sweep_b, cache=cache, backend="inline")

        from repro.engine import cache_key

        a_keys = {cache_key(u) for u in sweep_a}
        cap = sum(
            cache.path_for(k).stat().st_size for k in a_keys
        )
        report = api.run_sweep(sweep_a, cache=cache, backend="inline",
                               cache_max_size=cap)
        assert report.cache_hits == len(sweep_a)  # fully warm
        assert a_keys <= set(cache.keys())  # this run's records survive
        assert report.gc is not None and report.gc.removed > 0  # B evicted

    def test_gc_is_opt_in(self, tmp_path):
        units = [JobSpec("port_one",
                         GraphSpec.make("regular", seed=0, d=3, n=12))]
        report = api.run_sweep(units, cache=tmp_path, backend="inline")
        assert report.gc is None
        assert "not requested" in report.gc_line()

    def test_gc_without_cache_is_noop(self):
        units = [JobSpec("port_one",
                         GraphSpec.make("regular", seed=0, d=3, n=12))]
        report = api.run_sweep(units, cache=None, cache_max_size="1KiB")
        assert report.gc is None

    def test_sweep_cli_flag(self, tmp_path, capsys):
        assert main([
            "sweep", "--degrees", "2", "--sizes", "12", "--seeds", "2",
            "--backend", "inline", "--quiet",
            "--cache-dir", str(tmp_path), "--cache-max-size", "1KiB",
        ]) == 0
        out = capsys.readouterr().out
        assert "cache gc: evicted" in out
        assert ResultCache(tmp_path).stats().total_bytes <= 1024


@pytest.mark.parametrize("algorithm", BASELINE_ALGORITHMS)
def test_baselines_grid_safe_in_plain_sweeps(algorithm):
    """Baselines drop into ordinary quality sweeps, not just compare."""
    report = api.run_sweep(
        [JobSpec(algorithm, GraphSpec.make("regular", seed=0, d=3, n=10))],
        backend="inline",
    )
    record = report.records[0]
    assert record.algorithm == algorithm
    assert record.solution_size >= record.optimum > 0
