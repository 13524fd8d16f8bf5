"""Tests for the telemetry subsystem (``repro.obs``).

The contracts under test:

* spans are a no-op when nothing records, nest correctly when something
  does, and self times never double-count nested phases;
* a telemetry session aggregates identically whether units ran inline
  or crossed a process boundary (``UnitTelemetry`` JSON round-trip);
* telemetry never perturbs results — records and their cached bytes are
  byte-identical with telemetry on or off, on every backend;
* phase sums reconcile with unit wall time;
* the JSONL trace export is valid line-delimited JSON with the
  documented line types;
* the execution report gains ``wall_time_s`` and the progress printer
  only shows a units/s rate when units were actually computed.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import api
from repro.engine import ResultCache, SweepGrid, run_units
from repro.engine.executor import (
    ProgressPrinter,
    execute_cell,
    execute_unit,
)
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    UnitTelemetry,
    collection_enabled,
    current_recorder,
    percentile,
    recording,
    set_collection,
    span,
    span_self_times,
    summarize,
    telemetry,
    write_trace,
)

GRID = SweepGrid(
    name="telemetry-test",
    algorithms=("port_one", "bounded_degree"),
    family="regular",
    degrees=(2, 3),
    sizes=(12,),
    seeds=1,
)


def units():
    return GRID.expand()


# ---------------------------------------------------------------------------
# Span mechanics
# ---------------------------------------------------------------------------


class TestSpans:
    def test_span_is_noop_without_recorder(self):
        assert current_recorder() is None
        with span("anything", attr=1) as s:
            assert s is None

    def test_recording_installs_and_removes_recorder(self):
        with recording() as rec:
            assert current_recorder() is rec
        assert current_recorder() is None

    def test_nested_spans_record_parents(self):
        with recording() as rec:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner2"):
                    pass
        names = [s.name for s in rec.spans]
        assert names == ["outer", "inner", "inner2"]
        assert rec.spans[0].parent is None
        assert rec.spans[1].parent == 0
        assert rec.spans[2].parent == 0

    def test_self_times_exclude_children(self):
        # Scripted clock: outer spans 0..10s, the inner child 1..3s.
        readings = iter([0.0, 0.0, 1.0, 3.0, 10.0])
        rec = SpanRecorder(clock=lambda: next(readings))
        outer = rec.open("outer")
        inner = rec.open("inner")
        rec.close(inner)
        rec.close(outer)
        selfs = span_self_times(rec.spans)
        assert selfs[outer] == pytest.approx(8.0)
        assert selfs[inner] == pytest.approx(2.0)

    def test_annotate_attaches_to_innermost_open_span(self):
        with recording() as rec:
            with span("simulate"):
                rec.annotate(engine="compiled", rounds=7)
        assert rec.spans[0].attrs["engine"] == "compiled"
        assert rec.spans[0].attrs["rounds"] == 7

    def test_counters_accumulate(self):
        with recording() as rec:
            rec.count("x")
            rec.count("x", 4)
        assert rec.counters == {"x": 5}

    def test_unit_telemetry_json_round_trip(self):
        with recording() as rec:
            with span("simulate", engine="compiled"):
                rec.count("runtime.rounds", 12)
        unit = UnitTelemetry.from_recorder(
            rec, key="k" * 64, algorithm="port_one", label="test",
            measure="quality", wall_s=0.5,
        )
        clone = UnitTelemetry.from_json_dict(
            json.loads(json.dumps(unit.to_json_dict()))
        )
        assert clone.key == unit.key
        assert clone.counters == unit.counters
        assert [s.name for s in clone.spans] == ["simulate"]
        assert clone.spans[0].attrs == {"engine": "compiled"}
        assert clone.phase_self_times() == pytest.approx(
            unit.phase_self_times()
        )


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 0.5) == 5.0
        assert percentile(values, 0.95) == 10.0
        assert percentile([42.0], 0.5) == 42.0

    def test_summarize(self):
        s = summarize([3.0, 1.0, 2.0])
        assert s["count"] == 3
        assert s["total"] == pytest.approx(6.0)
        assert s["max"] == 3.0

    def test_registry_merge_and_histograms(self):
        m = MetricsRegistry()
        m.inc("a", 2)
        m.merge_counters({"a": 3, "b": 1})
        m.observe("phase.simulate", 0.25)
        assert m.counter("a") == 5
        assert m.counter("b") == 1
        assert m.histogram_names(prefix="phase.") == ["phase.simulate"]


# ---------------------------------------------------------------------------
# Instrumented execution
# ---------------------------------------------------------------------------


class TestInstrumentedExecution:
    def test_disabled_path_returns_no_telemetry(self):
        assert not collection_enabled()
        ((_, record, unit_telemetry),) = execute_cell([(0, units()[0])])
        assert unit_telemetry is None
        assert record == execute_unit(units()[0])

    def test_enabled_path_matches_plain_record(self):
        spec = units()[0]
        set_collection(True)
        try:
            ((_, record, unit_telemetry),) = execute_cell([(0, spec)])
        finally:
            set_collection(False)
        assert record.canonical() == execute_unit(spec).canonical()
        assert unit_telemetry is not None
        phases = unit_telemetry.phase_self_times()
        for expected in ("resolve", "graph_build", "simulate"):
            assert expected in phases
        # Phase self times reconcile with (stay within) unit wall time.
        assert sum(phases.values()) <= unit_telemetry.wall_s
        assert unit_telemetry.counters["runtime.runs"] >= 1
        assert unit_telemetry.counters["runtime.rounds"] >= 1

    def test_session_aggregates_and_reconciles(self):
        with telemetry() as session:
            report = run_units(units(), backend="inline")
        assert report.telemetry is session
        assert len(session.units) == len(units())
        assert session.metrics.counter("units.computed") == len(units())
        assert session.metrics.counter("runtime.runs") == len(units())
        assert session.metrics.counter("runtime.messages.delivered") > 0
        # Reconciliation: phase self-time total never exceeds wall total.
        assert session.phase_total_s() <= session.unit_wall_total_s()
        assert session.unaccounted_s() >= 0.0
        # Collection switch was restored afterwards.
        assert not collection_enabled()

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_aggregation_identical_across_backends(self, backend):
        """The process round-trip (telemetry serialised into the worker
        payload and back) must lose nothing: deterministic counters
        aggregate exactly as they do inline."""
        with telemetry() as inline_session:
            run_units(units(), backend="inline")
        with telemetry() as session:
            run_units(units(), backend=backend, workers=2)
        for name in ("runtime.runs", "runtime.rounds",
                     "runtime.messages.delivered",
                     "runtime.messages.dropped", "units.computed",
                     "graph_build.graphs", "graph_build.shared"):
            assert session.metrics.counter(name) == (
                inline_session.metrics.counter(name)
            ), name
        assert sorted(u.key for u in session.units) == sorted(
            u.key for u in inline_session.units
        )

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_records_byte_identical_with_and_without_telemetry(
        self, backend
    ):
        """Telemetry travels next to records, never inside them."""
        plain = [r.canonical() for r in run_units(units()).records]
        with telemetry():
            observed = run_units(
                units(), backend=backend, workers=2
            ).records
        assert [r.canonical() for r in observed] == plain

    def test_cached_bytes_unchanged_by_telemetry(self, tmp_path):
        """The cache files a telemetry run writes are byte-identical to
        the ones a plain run writes — traces never leak into the cache."""
        cold = ResultCache(tmp_path / "cold")
        run_units(units(), cache=cold)
        warm = ResultCache(tmp_path / "warm")
        with telemetry():
            run_units(units(), cache=warm)
        for key in cold.keys():
            assert (
                warm.path_for(key).read_bytes()
                == cold.path_for(key).read_bytes()
            )

    def test_cache_hit_and_miss_metrics(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with telemetry() as session:
            run_units(units(), cache=cache)
        n = len(units())
        assert session.metrics.counter("cache.miss") == n
        assert session.metrics.counter("cache.write") == n
        with telemetry() as session:
            run_units(units(), cache=cache)
        assert session.metrics.counter("cache.hit") == n
        assert session.metrics.counter("units.computed") == 0

    def test_wall_time_recorded(self):
        report = run_units(units()[:1])
        assert report.wall_time_s > 0.0
        assert report.telemetry is None

    def test_graph_sharing_counted_and_reported(self):
        """Each cell's first unit builds the graph; the others count
        ``graph_build.shared`` and carry no build span."""
        from repro.obs import render_report

        with telemetry() as session:
            run_units(units(), backend="inline")
        cells = len(list(GRID.cells()))
        total = len(units())
        assert cells < total
        assert session.metrics.counter("graph_build.graphs") == cells
        assert session.metrics.counter("graph_build.shared") == total - cells
        builders = [
            u for u in session.units if "graph_build" in u.phase_self_times()
        ]
        assert len(builders) == cells
        for unit in session.units:
            shared = unit.counters.get("graph_build.shared", 0)
            assert shared == (0 if unit in builders else 1)
        assert (
            f"graph build: {cells} graph(s) for {total} unit(s), "
            in render_report(session)
        )

    def test_sandwich_split_and_sharing_reported(self):
        """The cell's first dual_bound unit computes the ν sandwich under
        ``optimum:primal`` / ``optimum:dual``; the others hit the memo,
        record neither span and count ``optimum.sandwich_shared``."""
        from repro.obs import render_report

        grid = SweepGrid(
            name="telemetry-sandwich",
            algorithms=("port_one", "bounded_degree"),
            family="regular",
            degrees=(3, 4),
            sizes=(16,),
            seeds=1,
            optimum="dual_bound",
        )
        specs = grid.expand()
        cells = len(list(grid.cells()))
        assert cells < len(specs)
        with telemetry() as session:
            run_units(specs, backend="inline")
        computed = [
            u for u in session.units
            if "optimum:primal" in u.phase_self_times()
        ]
        assert len(computed) == cells
        for unit in session.units:
            phases = unit.phase_self_times()
            assert "optimum_verify" in phases
            assert ("optimum:dual" in phases) == (unit in computed)
            shared = unit.counters.get("optimum.sandwich_shared", 0)
            assert shared == (0 if unit in computed else 1)
        assert session.metrics.counter("optimum.sandwich_shared") == (
            len(specs) - cells
        )
        assert (
            f"optimum: {cells} ν-sandwich(es) for {len(specs)} unit(s), "
            in render_report(session)
        )


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


class TestTraceExport:
    def test_trace_is_valid_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry() as session:
            run_units(units(), backend="inline")
        lines = write_trace(path, session, meta={"command": "test"})
        parsed = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert len(parsed) == lines == len(units()) + 2
        assert parsed[0]["type"] == "meta"
        assert parsed[0]["command"] == "test"
        assert all(p["type"] == "unit" for p in parsed[1:-1])
        assert parsed[-1]["type"] == "summary"
        assert parsed[-1]["metrics"]["counters"]["units.computed"] == (
            len(units())
        )
        # Every unit line round-trips into UnitTelemetry.
        for p in parsed[1:-1]:
            unit = UnitTelemetry.from_json_dict(p)
            assert unit.spans

    def test_trace_of_empty_session(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        with telemetry() as session:
            pass
        assert write_trace(path, session) == 2  # meta + summary


# ---------------------------------------------------------------------------
# Progress reporting
# ---------------------------------------------------------------------------


class TestProgressPrinter:
    def _lines(self, printer, stream):
        return [line for line in stream.getvalue().splitlines() if line]

    def test_shows_rate_when_computing(self):
        stream = io.StringIO()
        printer = ProgressPrinter(4, stream=stream, min_interval=0.0)
        printer(2, 0)
        assert "units/s" in stream.getvalue()

    def test_all_cached_run_shows_no_rate(self):
        """computed == 0: a throughput number would be meaningless."""
        stream = io.StringIO()
        printer = ProgressPrinter(4, stream=stream, min_interval=0.0)
        printer(4, 4)
        out = stream.getvalue()
        assert "4/4 units (4 cached)" in out
        assert "units/s" not in out
        assert "eta 0s" in out

    def test_zero_done_shows_no_rate(self):
        stream = io.StringIO()
        printer = ProgressPrinter(4, stream=stream, min_interval=0.0)
        printer(0, 0)
        out = stream.getvalue()
        assert "units/s" not in out
        assert "eta ?" in out


# ---------------------------------------------------------------------------
# Public API surface
# ---------------------------------------------------------------------------


class TestApiSurface:
    def test_run_sweep_exposes_telemetry_session(self):
        with telemetry() as session:
            report = api.run_sweep(units(), backend="inline")
        assert report.telemetry is session
        assert report.wall_time_s > 0.0


# ---------------------------------------------------------------------------
# Edge cases: empty sessions, all-cached runs, ordering determinism
# ---------------------------------------------------------------------------


class TestEdgeCases:
    def _unit(self, key: str, wall: float) -> UnitTelemetry:
        return UnitTelemetry(
            key=key, algorithm="a", label="l", measure="quality",
            wall_s=wall, worker="1:MainThread",
        )

    def test_top_units_breaks_wall_ties_by_key(self):
        """Pool backends ingest units in completion order; equal wall
        times must still render in one canonical order."""
        from repro.obs.session import TelemetrySession

        for order in (("b", "a", "c"), ("c", "b", "a")):
            session = TelemetrySession()
            for key in order:
                session.add_unit(self._unit(key, 0.5))
            assert [u.key for u in session.top_units(3)] == ["a", "b", "c"]

    def test_top_units_sorts_by_wall_before_key(self):
        from repro.obs.session import TelemetrySession

        session = TelemetrySession()
        session.add_unit(self._unit("z", 2.0))
        session.add_unit(self._unit("a", 1.0))
        assert [u.key for u in session.top_units(2)] == ["z", "a"]

    def test_empty_session_renders_report(self):
        from repro.obs import render_report, report_json_dict

        with telemetry() as session:
            pass
        text = render_report(session)
        assert "0 unit(s)" in text or "units" in text
        data = report_json_dict(session)
        assert data["units_computed"] == 0
        assert data["phases"] == []
        assert data["top_units"] == []
        assert data["memory_captured"] is False

    def test_empty_metrics_merge(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.merge_counters(right.counters)
        assert left.counters == {}
        assert left.summary("anything") == {
            "count": 0, "total": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0,
        }

    def test_all_cached_sweep_has_zero_units_but_valid_outputs(
        self, tmp_path
    ):
        from repro.obs import render_report, write_perfetto

        cache = ResultCache(tmp_path / "cache")
        api.run_sweep(units(), cache=cache)  # warm
        with telemetry() as session:
            api.run_sweep(units(), cache=cache)
        assert session.units == []
        assert session.metrics.counters.get("cache.hit") == len(units())
        assert session.top_units(5) == []
        assert session.unaccounted_s() == 0.0
        # Both exporters must cope with a unit-less session.
        trace = tmp_path / "cached.jsonl"
        assert write_trace(trace, session) == 2
        assert write_perfetto(tmp_path / "cached.pft.json", session) == 0
        assert "cache" in render_report(session)

    def test_profile_format_json_cli(self, capsys):
        from repro.cli import main

        code = main([
            "profile", "--scenario", "default", "--limit", "2",
            "--backend", "inline", "--no-cache", "--format", "json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["units_computed"] == 2
        assert data["memory_captured"] is False
        assert {p["name"] for p in data["phases"]} >= {"simulate"}
        assert len(data["top_units"]) == 2

    def test_profile_json_with_memory_carries_bytes(self, capsys):
        from repro.cli import main

        code = main([
            "profile", "--scenario", "default", "--limit", "1",
            "--backend", "inline", "--no-cache", "--format", "json",
            "--mem",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["memory_captured"] is True
        simulate = next(
            p for p in data["phases"] if p["name"] == "simulate"
        )
        assert simulate["mem_peak_max_b"] > 0
        assert data["top_units"][0]["mem_peak_b"] > 0

    def test_mem_without_trace_warns_on_sweep(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--degrees", "2", "--sizes", "12", "--seeds", "1",
            "--no-cache", "--backend", "inline", "--quiet",
            "--algorithms", "port_one", "--mem",
        ])
        assert code == 0
        assert "--mem has no effect" in capsys.readouterr().err
