"""The numpy vector engine: selection, fallback, and degradation.

Observational identity with the compiled engine is enforced by the
differential matrix in ``test_runtime_compiled.py`` (which includes
``vector`` whenever numpy is installed).  This module covers what the
matrix cannot: the engine-selection contract — ``auto`` degrading
silently, explicit ``vector`` raising without numpy, the one-time
fallback notice for algorithms without a vector kernel — plus the
vector-specific plumbing (memoised :class:`VectorGraph` views, lazy
trace slabs, telemetry annotations).
"""

from __future__ import annotations

import logging

import pytest

from repro.algorithms.maximal_matching_ids import GreedyMaximalMatchingIds
from repro.exceptions import SimulationError
from repro.portgraph import PortGraphBuilder
from repro.registry.families import get_family
from repro.runtime import (
    NodeProgram,
    engines_available,
    run_anonymous,
    run_identified,
    use_engine,
    vector_available,
)
from repro.runtime import scheduler as scheduler_module

needs_numpy = pytest.mark.skipif(
    not vector_available(), reason="numpy not installed"
)


def small_regular():
    return get_family("regular").make({"d": 3, "n": 10}, 7)


class _NoVectorKernel(NodeProgram):
    """A per-node program with no batch or vector opt-in."""

    def send(self, rnd):
        return {}

    def receive(self, rnd, inbox):
        self.halt()


@pytest.fixture
def clear_fallback_notices():
    scheduler_module._vector_fallback_seen.clear()
    yield
    scheduler_module._vector_fallback_seen.clear()


class TestEnginesAvailable:
    def test_reports_every_engine(self):
        avail = engines_available()
        assert set(avail) == {
            "compiled", "vector", "auto", "pernode", "legacy"
        }
        assert all(avail[name] for name in avail if name != "vector")

    def test_vector_availability_matches_probe(self):
        assert engines_available()["vector"] == vector_available()


class TestSelectionContract:
    @needs_numpy
    def test_explicit_vector_runs_vector(self):
        from repro.algorithms.port_one import PortOneEDS
        from repro.obs import recording

        with recording() as rec:
            run_anonymous(small_regular(), PortOneEDS, engine="vector")
        assert rec.counters.get("runtime.vector.runs") == 1

    @needs_numpy
    def test_auto_prefers_vector(self):
        from repro.algorithms.port_one import PortOneEDS
        from repro.obs import recording

        with recording() as rec:
            with use_engine("auto"):
                run_anonymous(small_regular(), PortOneEDS)
        assert rec.counters.get("runtime.vector.runs") == 1

    def test_auto_without_kernel_runs_compiled(self):
        from repro.obs import recording

        with recording() as rec:
            result = run_anonymous(
                small_regular(), _NoVectorKernel, engine="auto"
            )
        assert result.rounds == 1
        assert "runtime.vector.runs" not in rec.counters

    def test_fallback_notice_logged_once(self, caplog,
                                         clear_fallback_notices):
        """Explicit ``vector`` without a vector kernel degrades to the
        compiled engine with a single logged notice per algorithm."""
        if not vector_available():
            pytest.skip("numpy not installed")
        with caplog.at_level(logging.INFO, logger="repro.runtime.scheduler"):
            run_anonymous(small_regular(), _NoVectorKernel, engine="vector")
            run_anonymous(small_regular(), _NoVectorKernel, engine="vector")
        notices = [
            rec for rec in caplog.records
            if "falls back to the compiled engine" in rec.getMessage()
        ]
        assert len(notices) == 1

    def test_auto_fallback_is_silent(self, caplog, clear_fallback_notices):
        with caplog.at_level(logging.INFO, logger="repro.runtime.scheduler"):
            run_anonymous(small_regular(), _NoVectorKernel, engine="auto")
        assert not [
            rec for rec in caplog.records
            if "falls back" in rec.getMessage()
        ]


class TestWithoutNumpy:
    """The degradation paths, exercised by faking numpy's absence."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        import repro.portgraph.vector as pv

        monkeypatch.setattr(pv, "np", None)
        yield

    def test_explicit_vector_raises_actionable_error(self, no_numpy):
        from repro.algorithms.port_one import PortOneEDS

        with pytest.raises(SimulationError, match=r"repro-eds\[vector\]"):
            run_anonymous(small_regular(), PortOneEDS, engine="vector")

    def test_auto_falls_back_silently(self, no_numpy, caplog):
        from repro.algorithms.port_one import PortOneEDS

        assert not vector_available()
        with caplog.at_level(logging.INFO, logger="repro.runtime.scheduler"):
            result = run_anonymous(
                small_regular(), PortOneEDS, engine="auto",
            )
        assert result.rounds == 1
        assert not caplog.records

    def test_engines_available_reports_missing(self, no_numpy):
        assert engines_available()["vector"] is False

    def test_identified_explicit_vector_raises(self, no_numpy):
        graph = get_family("regular").make({"d": 3, "n": 8}, 7)
        with pytest.raises(SimulationError, match="requires numpy"):
            run_identified(
                graph, GreedyMaximalMatchingIds, engine="vector"
            )


@needs_numpy
class TestVectorGraphView:
    def test_memoised_on_compiled_graph(self):
        graph = small_regular()
        cg = graph.compiled()
        assert cg.vector() is cg.vector()
        assert cg.memo["vector_graph"] is cg.vector()

    def test_csr_views_match_flat_arrays(self):
        import numpy as np

        graph = small_regular()
        cg = graph.compiled()
        vg = cg.vector()
        assert vg.num_nodes == len(cg.nodes)
        assert list(vg.mate) == list(cg.mate)
        assert list(vg.port_node) == list(cg.port_node)
        # local/peer round-trip through the involution
        assert np.array_equal(vg.mate[vg.mate], vg.all_ports)
        assert np.array_equal(vg.peer_local[vg.mate], vg.local)

    def test_segment_min_empty_segments(self):
        import numpy as np

        builder = PortGraphBuilder()
        builder.add_nodes({"u": 1, "v": 1, "w": 0})
        builder.connect("u", 1, "v", 1)
        vg = builder.build().compiled().vector()
        values = np.array([5, 3], dtype=np.int64)
        out = vg.segment_min(values, empty=99)
        assert list(out) == [5, 3, 99]


@needs_numpy
class TestLazyTraces:
    def test_trace_only_materialised_on_request(self):
        """Without ``record_trace`` the vector run keeps no slabs."""
        from repro.algorithms.regular_odd import RegularOddEDS

        graph = small_regular()
        vec = RegularOddEDS.vector_program(graph)
        rnd = 0
        while vec.num_running:
            vec.step_all(rnd)
            rnd += 1
        assert vec._slabs == []
        assert vec._halted_log == []

    def test_slabs_expand_to_compiled_trace(self):
        from repro.algorithms.regular_odd import RegularOddEDS

        graph = small_regular()
        compiled = run_anonymous(
            graph, RegularOddEDS, engine="compiled", record_trace=True
        )
        vector = run_anonymous(
            graph, RegularOddEDS, engine="vector", record_trace=True
        )
        assert vector.trace == compiled.trace


@needs_numpy
class TestIdOverflow:
    def test_oversized_ids_fall_back(self):
        """Identifiers beyond int64 cannot enter the id arrays; the
        hook declines and the run degrades to the compiled engine."""
        graph = get_family("regular").make({"d": 3, "n": 8}, 7)
        huge = {v: 2 ** 70 + i for i, v in enumerate(graph.nodes)}
        assert GreedyMaximalMatchingIds.vector_program(graph, huge) is None
        with_ids = run_identified(
            graph, GreedyMaximalMatchingIds, ids=huge, engine="auto"
        )
        reference = run_identified(
            graph, GreedyMaximalMatchingIds, ids=huge, engine="compiled"
        )
        assert with_ids.outputs == reference.outputs
        assert with_ids.rounds == reference.rounds
