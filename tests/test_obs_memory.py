"""Tests for per-phase memory telemetry (``repro.obs.memory``).

The contracts:

* memory capture is strictly opt-in — with it off, spans and unit
  telemetry carry no memory fields and serialize byte-identically to
  the pre-memory shape;
* with it on, every closed span gets a traced peak / net-alloc / RSS
  triple, a child's allocation spike is charged to every open ancestor,
  and the unit-level peak dominates every span peak;
* only one meter can be live per process (tracemalloc peaks are global
  state): a concurrent recorder silently records timing only;
* memory aggregates into the session as ``phase_mem.*`` / ``unit.*`` /
  ``engine_mem.*`` histograms and renders as table columns — and never
  changes cache keys or record bytes (`--mem` on vs off).
"""

from __future__ import annotations

import json

from repro import api
from repro.engine import ResultCache, SweepGrid
from repro.engine.cache import cache_key
from repro.engine.executor import execute_unit
from repro.obs import (
    MemoryMeter,
    Span,
    UnitTelemetry,
    memory_collection_enabled,
    recording,
    render_report,
    rss_peak_bytes,
    set_memory_collection,
    span,
    telemetry,
)

GRID = SweepGrid(
    name="mem-test",
    algorithms=("port_one", "bounded_degree"),
    family="regular",
    degrees=(2, 3),
    sizes=(12,),
    seeds=1,
)


def units():
    return GRID.expand()


class TestMemoryMeter:
    def test_flag_round_trip(self):
        assert not memory_collection_enabled()
        set_memory_collection(True)
        try:
            assert memory_collection_enabled()
        finally:
            set_memory_collection(False)
        assert not memory_collection_enabled()

    def test_rss_peak_is_positive_bytes(self):
        rss = rss_peak_bytes()
        assert rss is not None
        # A running interpreter is at least a few MiB resident.
        assert rss > 1 << 20

    def test_spans_carry_no_memory_by_default(self):
        with recording() as rec:
            with span("phase"):
                pass
        assert rec.mem_peak_b is None
        assert rec.spans[0].mem_peak_b is None
        data = rec.spans[0].to_json_dict()
        assert "mem_peak_b" not in data and "mem_alloc_b" not in data

    def test_spans_capture_memory_when_enabled(self):
        with recording(capture_memory=True) as rec:
            with span("alloc"):
                blob = bytearray(4_000_000)
            del blob
        assert rec.mem_peak_b is not None and rec.mem_peak_b >= 4_000_000
        assert rec.rss_peak_b is not None
        alloc_span = rec.spans[0]
        assert alloc_span.mem_peak_b >= 4_000_000
        assert alloc_span.mem_alloc_b >= 4_000_000
        assert alloc_span.mem_rss_b == rec.rss_peak_b

    def test_child_spike_charged_to_open_ancestors(self):
        with recording(capture_memory=True) as rec:
            with span("parent"):
                with span("child"):
                    blob = bytearray(4_000_000)
                del blob
        parent, child = rec.spans[0], rec.spans[1]
        assert child.mem_peak_b >= 4_000_000
        # The 4 MB were live while the parent was open, so its peak must
        # reflect them even though the child allocated (and freed) them.
        assert parent.mem_peak_b >= 4_000_000
        # ...but the parent's *net* allocation is small: the blob died
        # inside its window.
        assert parent.mem_alloc_b < 1_000_000
        # The unit-level peak dominates every span peak.
        assert rec.mem_peak_b >= parent.mem_peak_b

    def test_meter_is_exclusive_per_process(self):
        meter = MemoryMeter.acquire()
        assert meter is not None
        try:
            assert MemoryMeter.acquire() is None
        finally:
            meter.finish()
        second = MemoryMeter.acquire()
        assert second is not None
        second.finish()

    def test_concurrent_recording_skips_memory_not_timing(self):
        with recording(capture_memory=True) as outer:
            with span("outer_phase"):
                pass
            # A nested recorder can't get the meter; it must still
            # record spans.
            with recording(capture_memory=True) as inner:
                with span("inner_phase"):
                    pass
            assert inner.mem_peak_b is None
            assert inner.spans[0].mem_peak_b is None
            assert inner.spans[0].duration_s >= 0.0
        assert outer.mem_peak_b is not None


class TestSerialization:
    def test_span_json_round_trip_with_memory(self):
        original = Span(
            name="simulate", start_s=0.1, duration_s=0.2,
            mem_alloc_b=10, mem_peak_b=300, mem_rss_b=1 << 20,
        )
        restored = Span.from_json_dict(
            json.loads(json.dumps(original.to_json_dict()))
        )
        assert restored == original

    def test_unit_telemetry_round_trip_with_memory(self):
        with recording(capture_memory=True) as rec:
            with span("alloc"):
                blob = bytearray(1_000_000)
            del blob
        unit = UnitTelemetry.from_recorder(
            rec, key="k", algorithm="a", label="l", measure="m", wall_s=0.5,
        )
        assert unit.mem_peak_b == rec.mem_peak_b
        restored = UnitTelemetry.from_json_dict(
            json.loads(json.dumps(unit.to_json_dict()))
        )
        # Timestamps are rounded on write, so compare the memory payload
        # and check the round trip is a fixed point.
        assert restored.mem_peak_b == unit.mem_peak_b
        assert restored.rss_peak_b == unit.rss_peak_b
        assert restored.phase_mem_peaks() == unit.phase_mem_peaks()
        again = UnitTelemetry.from_json_dict(restored.to_json_dict())
        assert again == restored

    def test_json_shape_unchanged_without_memory(self):
        unit = UnitTelemetry(
            key="k", algorithm="a", label="l", measure="m",
            wall_s=0.5, worker="1:MainThread",
        )
        data = unit.to_json_dict()
        assert "mem_peak_b" not in data and "rss_peak_b" not in data


class TestSessionAggregation:
    def test_session_collects_memory_histograms(self):
        with telemetry(capture_memory=True) as session:
            api.run_sweep(units(), cache=None, backend="inline")
        assert session.has_memory()
        unit_mem = session.metrics.summary("unit.mem_peak_b")
        assert unit_mem["count"] == len(units())
        assert unit_mem["max"] > 0
        phase_mems = session.metrics.histogram_names(prefix="phase_mem.")
        assert "phase_mem.simulate" in phase_mems
        assert "phase_mem.graph_build:generate" in phase_mems
        # Per-engine attribution via the simulate span's engine attr.
        engines = session.metrics.histogram_names(prefix="engine_mem.")
        assert engines, "expected at least one engine_mem histogram"

    def test_session_without_mem_flag_collects_none(self):
        with telemetry() as session:
            api.run_sweep(units()[:1], cache=None, backend="inline")
        assert not session.has_memory()
        assert session.metrics.histogram_names(prefix="phase_mem.") == []

    def test_report_gains_memory_columns_only_with_mem(self):
        with telemetry(capture_memory=True) as with_mem:
            api.run_sweep(units()[:2], cache=None, backend="inline")
        report = render_report(with_mem)
        assert "mem p50" in report
        assert "memory: traced peak per unit" in report
        assert "memory by engine:" in report

        with telemetry() as without_mem:
            api.run_sweep(units()[:2], cache=None, backend="inline")
        report = render_report(without_mem)
        assert "mem p50" not in report
        assert "memory:" not in report


class TestResultPurity:
    def test_records_byte_identical_with_mem_on_and_off(self):
        unit = units()[0]
        plain = execute_unit(unit)
        with telemetry(capture_memory=True):
            report = api.run_sweep([unit], cache=None, backend="inline")
        instrumented = report.records[0]
        assert (
            json.dumps(plain.to_json_dict(), sort_keys=True)
            == json.dumps(instrumented.to_json_dict(), sort_keys=True)
        )

    def test_cache_bytes_and_keys_unchanged_by_mem(self, tmp_path):
        unit = units()[0]
        key_before = cache_key(unit)

        cache_off = ResultCache(tmp_path / "off")
        api.run_sweep([unit], cache=cache_off)

        cache_on = ResultCache(tmp_path / "on")
        with telemetry(capture_memory=True):
            api.run_sweep([unit], cache=cache_on)

        assert cache_key(unit) == key_before
        path_off = cache_off.path_for(key_before)
        path_on = cache_on.path_for(key_before)
        assert path_off.read_bytes() == path_on.read_bytes()

    def test_memory_flags_always_reset_after_run(self):
        with telemetry(capture_memory=True):
            api.run_sweep(units()[:1], cache=None, backend="inline")
        assert not memory_collection_enabled()


class TestGraphBuildSubPhases:
    def test_generate_and_compile_are_separate_phases(self):
        # ``bounded`` graphs still take the networkx route, whose
        # lowering to arrays runs as its own ``compile`` step.
        bounded = GRID.override(family="bounded").expand()[:2]
        with telemetry() as session:
            api.run_sweep(bounded, cache=None, backend="inline")
        phases = session.phase_names()
        assert "graph_build" in phases
        assert "graph_build:generate" in phases
        assert "graph_build:compile" in phases
        # The parent keeps only coordination self-time: the generator's
        # time lives in the child, so the parent's total is smaller.
        parent = session.metrics.summary("phase.graph_build")["total"]
        generate = session.metrics.summary(
            "phase.graph_build:generate"
        )["total"]
        assert parent < generate

    def test_vector_view_phase_appears_on_vector_engine(self):
        from repro.runtime import use_engine

        with telemetry() as session, use_engine("vector"):
            api.run_sweep(units()[:1], cache=None, backend="inline")
        assert "graph_build:vector_view" in session.phase_names()
