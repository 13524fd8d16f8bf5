"""The numpy vector engine: engine selection and vector plumbing.

Observational identity with the compiled engine is enforced by the
differential matrix in ``test_runtime_compiled.py``.  This module covers
what the matrix cannot: the engine-selection contract — ``vector`` is
the default, an algorithm without a vector kernel runs on the compiled
loop silently, removed engine names are rejected — plus the
vector-specific plumbing (memoised :class:`VectorGraph` views, lazy
trace slabs, telemetry annotations).
"""

from __future__ import annotations

import logging
from contextlib import nullcontext

import pytest

from repro.algorithms.bounded_degree import BoundedDegreeEDS
from repro.algorithms.double_cover import DominatingTwoMatching
from repro.algorithms.maximal_matching_ids import GreedyMaximalMatchingIds
from repro.algorithms.port_one import PortOneEDS
from repro.exceptions import AlgorithmContractError
from repro.obs import recording
from repro.obs.spans import span
from repro.portgraph import PortGraphBuilder
from repro.registry.families import get_family
from repro.runtime import (
    ENGINES,
    NodeProgram,
    run_anonymous,
    run_identified,
    use_engine,
)


def small_regular():
    return get_family("regular").make({"d": 3, "n": 10}, 7)


class _NoVectorKernel(NodeProgram):
    """A per-node program with no vector opt-in."""

    def send(self, rnd):
        return {}

    def receive(self, rnd, inbox):
        self.halt()


def _engine_that_ran(algorithm, **kwargs):
    """Run *algorithm* inside a ``simulate`` span; return the result,
    the span's ``engine`` annotation and the recorder's counters."""
    with recording() as rec:
        with span("simulate"):
            result = run_anonymous(small_regular(), algorithm, **kwargs)
    (sim,) = [s for s in rec.spans if s.name == "simulate"]
    return result, sim.attrs["engine"], rec.counters


class TestSelectionContract:
    def test_explicit_vector_runs_vector(self):
        with recording() as rec, use_engine("vector"):
            run_anonymous(small_regular(), PortOneEDS)
        assert rec.counters.get("runtime.vector.runs") == 1

    def test_default_runs_vector(self):
        _, engine, counters = _engine_that_ran(PortOneEDS)
        assert engine == "vector"
        assert counters.get("runtime.vector.runs") == 1

    @pytest.mark.parametrize("engine", [None, "vector"])
    def test_without_kernel_runs_compiled_silently(self, caplog, engine):
        """No vector kernel: the compiled loop runs, the span says so,
        and nothing is logged."""
        region = nullcontext() if engine is None else use_engine(engine)
        with caplog.at_level(logging.DEBUG, logger="repro"), region:
            result, ran, counters = _engine_that_ran(_NoVectorKernel)
        assert result.rounds == 1
        assert ran == "compiled"
        assert "runtime.vector.runs" not in counters
        assert not caplog.records

    @pytest.mark.parametrize("name", ["auto", "pernode"])
    def test_removed_engine_names_rejected(self, name):
        assert name not in ENGINES
        with pytest.raises(ValueError, match="unknown engine"):
            with use_engine(name):
                pass


class TestVectorGraphView:
    def test_memoised_on_compiled_graph(self):
        graph = small_regular()
        cg = graph.compiled()
        assert cg.vector() is cg.vector()
        assert cg.vector().memo is cg.memo

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

    @pytest.mark.parametrize(
        "degrees",
        [
            # trailing isolated nodes after a node of degree >= 2
            {"a": 1, "b": 1, "c": 2, "w": 0, "x": 0},
            {"a": 1, "b": 1, "c": 1, "d": 3, "z": 0},
            # isolated nodes in the middle and at both ends
            {"a": 0, "b": 2, "c": 0, "d": 2, "e": 0, "f": 0},
        ],
    )
    def test_segment_min_matches_per_node_loop(self, degrees):
        """Every port counts, whatever degree-0 nodes follow it."""
        import numpy as np

        builder = PortGraphBuilder()
        builder.add_nodes(degrees)
        free = [(v, i) for v, d in degrees.items() for i in range(1, d + 1)]
        half = len(free) // 2
        for (u, i), (v, j) in zip(free[:half], reversed(free[half:])):
            builder.connect(u, i, v, j)
        vg = builder.build().compiled().vector()
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = rng.integers(0, 100, vg.num_ports, dtype=np.int64)
            expected = [
                min(values[vg.offsets[k]:vg.offsets[k + 1]], default=-1)
                for k in range(vg.num_nodes)
            ]
            assert list(vg.segment_min(values, empty=-1)) == expected


def _two_hubs():
    """Node 0 (degree 3) is the first over Δ ∈ {1, 2}; node 4 (degree
    5) has the larger excess."""
    import networkx as nx

    from repro.portgraph.convert import from_networkx
    from repro.portgraph.numbering import sequential_numbering

    graph = nx.Graph([(0, 1), (0, 2), (0, 3)])
    graph.add_edges_from((4, v) for v in range(5, 10))
    return from_networkx(graph, sequential_numbering)


class TestContractErrorsMatchCompiled:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: BoundedDegreeEDS(max_degree=1),
            lambda: BoundedDegreeEDS(max_degree=2),
            lambda: DominatingTwoMatching(max_degree=2),
        ],
        ids=["all_edges", "bounded_degree", "double_cover"],
    )
    def test_same_error_as_compiled(self, factory):
        messages = []
        for engine in ("compiled", "vector"):
            with pytest.raises(AlgorithmContractError) as caught:
                with use_engine(engine):
                    run_anonymous(_two_hubs(), factory())
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("node degree 3 exceeds")


class TestBoundedMixedAgreesWithCompiled:
    def test_bounded_mixed_records_identical(self):
        """The ``bounded-mixed`` grid has graphs that end in isolated
        nodes; the vector kernels must match the compiled loop on all of
        them (``optimum`` is engine-independent, so it is left off)."""
        from repro.engine import run_units
        from repro.engine.scenarios import get_scenario

        units = get_scenario("bounded-mixed").override(
            algorithms=("bounded_degree", "ids_greedy"), optimum="none"
        ).expand()
        records = {}
        for engine in ("vector", "compiled"):
            with use_engine(engine):
                report = run_units(units, backend="inline")
            records[engine] = [r.canonical() for r in report.records]
        assert records["vector"] == records["compiled"]


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
        with use_engine("compiled"):
            compiled = run_anonymous(graph, RegularOddEDS, record_trace=True)
        with use_engine("vector"):
            vector = run_anonymous(graph, RegularOddEDS, record_trace=True)
        assert vector.trace == compiled.trace


class TestIdOverflow:
    def test_oversized_ids_fall_back(self):
        """Identifiers beyond int64 cannot enter the id arrays; the
        hook declines and the run degrades to the compiled engine."""
        graph = get_family("regular").make({"d": 3, "n": 8}, 7)
        huge = {v: 2 ** 70 + i for i, v in enumerate(graph.nodes)}
        assert GreedyMaximalMatchingIds.vector_program(graph, huge) is None
        with_ids = run_identified(graph, GreedyMaximalMatchingIds, ids=huge)
        with use_engine("compiled"):
            reference = run_identified(
                graph, GreedyMaximalMatchingIds, ids=huge
            )
        assert with_ids.outputs == reference.outputs
        assert with_ids.rounds == reference.rounds
