"""Tests for the pluggable execution backends.

Covers the backend subsystem's contracts:

* every backend produces byte-identical records (the determinism
  contract: records depend on specs, never on the execution substrate),
* ``"auto"`` is a rule on the worker count — inline for one worker, the
  process pool for more,
* the report records which backend ran,
* cached reruns are byte-identical across all backends and cache
  entries written by one backend are served to every other.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.cli import main
from repro.engine import (
    GraphSpec,
    JobSpec,
    ResultCache,
    SweepGrid,
    run_units,
)
from repro.engine.backends import (
    BACKEND_NAMES,
    InlineBackend,
    ProcessBackend,
    resolve_backend,
)

GRID = SweepGrid(
    name="backend-test",
    algorithms=("port_one", "bounded_degree", "randomized_matching"),
    family="regular",
    degrees=(2, 3),
    sizes=(12,),
    seeds=2,
)


def units():
    return GRID.expand()


class TestResolveBackend:
    def test_names_resolve(self):
        assert isinstance(resolve_backend("inline"), InlineBackend)
        assert isinstance(resolve_backend("process", workers=3),
                          ProcessBackend)

    def test_none_means_auto(self):
        assert isinstance(resolve_backend(None), InlineBackend)
        assert isinstance(resolve_backend(None, workers=2), ProcessBackend)

    def test_auto_is_inline_for_one_worker(self):
        assert isinstance(resolve_backend("auto", workers=1), InlineBackend)

    def test_auto_is_a_pool_of_the_workers(self):
        resolved = resolve_backend("auto", workers=2)
        assert isinstance(resolved, ProcessBackend)
        assert resolved.workers == 2

    def test_workers_threaded_through(self):
        assert resolve_backend("process", workers=5).workers == 5

    def test_instances_pass_through(self):
        backend = InlineBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("gpu")
        with pytest.raises(
            ValueError, match="available: auto, inline, process$"
        ):
            resolve_backend("thread", workers=2)

    def test_cli_rejects_the_thread_backend(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--backend", "thread"])
        assert exc.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_backend_names_cover_the_builtins(self):
        assert BACKEND_NAMES == ("auto", "inline", "process")


class TestBackendEquivalence:
    def test_all_backends_byte_identical(self):
        baseline = run_units(units(), backend="inline").records
        for name in ("process", "auto"):
            report = run_units(units(), workers=2, backend=name)
            assert [r.canonical() for r in report.records] == [
                r.canonical() for r in baseline
            ], f"backend {name} diverged from inline"

    def test_cache_entries_shared_between_backends(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_units(units(), backend="inline", cache=cache)
        assert first.computed == len(units())
        for name in ("process", "auto"):
            rerun = run_units(units(), workers=2, backend=name, cache=cache)
            assert rerun.cache_hits == len(units())
            assert rerun.computed == 0
            assert [r.canonical() for r in rerun.records] == [
                r.canonical() for r in first.records
            ]

    def test_process_backend_single_unit_stays_in_process(self):
        # One unit (or one worker) must not pay pool startup.
        unit = units()[0]
        results = list(ProcessBackend(4).run([(0, unit)]))
        assert len(results) == 1 and results[0][0] == 0


class TestReportSurface:
    def test_report_records_backend_and_decision(self):
        report = run_units(units()[:3], backend="inline")
        assert report.backend == "inline"
        assert report.backend_line() == "backend: inline"

    def test_api_run_sweep_threads_backend(self, tmp_path):
        report = api.run_sweep(
            GRID, backend="process", workers=2,
            cache=ResultCache(tmp_path),
        )
        assert report.backend == "process(workers=2)"
        assert report.backend_line() == "backend: process(workers=2)"

    def test_run_one_defaults_to_inline_resolution(self):
        record = api.run_one(
            "port_one", api.graph("cycle", n=8), optimum="none"
        )
        assert record.solution_size > 0


class TestJobSpecStillHashesIdentically:
    """Backend choice must never leak into content addresses."""

    def test_key_independent_of_backend(self, tmp_path):
        from repro.engine import cache_key

        unit = JobSpec(
            "port_one", GraphSpec.make("regular", seed=1, d=3, n=12)
        )
        key = cache_key(unit)
        for name in BACKEND_NAMES:
            report = run_units([unit], workers=2, backend=name)
            assert report.records[0].key == key
