"""The cell contract: one graph build per graph, shared by its units.

A *cell* is the set of units that share one :class:`GraphSpec` (a
sweep's algorithms on one graph).  The executor runs each cell's units
back to back on one built graph, so:

* ``GraphSpec.build`` runs once per cell on every built-in backend;
* records are byte-identical to executing each unit on its own, even
  when same-graph units are submitted far apart and mixed with measures
  that build their own graph;
* no graph outlives its cell, and none outlives :func:`run_units`;
* the exact optimum is searched once per cell;
* a failing unit still fails the run, after the earlier cells were
  written to the cache.
"""

from __future__ import annotations

import gc

import pytest

from repro.engine import (
    GraphSpec,
    JobSpec,
    ResultCache,
    SweepGrid,
    cache_key,
    run_units,
)
from repro.engine.backends import ExecutionBackend, InlineBackend
from repro.engine.executor import execute_cell, execute_unit
from repro.engine.figures import figure_unit
from repro.engine.measures import QualityMeasure
from repro.obs import telemetry
from repro.portgraph.graph import PortNumberedGraph

GRID = SweepGrid(
    name="cells-test",
    algorithms=("port_one", "bounded_degree", "regular_odd"),
    family="regular",
    degrees=(3,),
    sizes=(10, 12),
    seeds=2,
    optimum="none",
)


def grid_units() -> list[JobSpec]:
    return GRID.expand()


def scattered_units() -> list[JobSpec]:
    """The grid with algorithms outermost: no two same-graph units are
    adjacent."""
    units = grid_units()
    return sorted(units, key=lambda u: GRID.algorithms.index(u.algorithm))


def num_cells(units) -> int:
    return len({u.graph for u in units})


def canonical(records) -> list[str]:
    return [r.canonical() for r in records]


@pytest.fixture
def builds(monkeypatch):
    """Every ``GraphSpec.build`` call made in this process."""
    calls: list[GraphSpec] = []
    original = GraphSpec.build

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GraphSpec, "build", counting)
    return calls


class RecordingBackend(ExecutionBackend):
    """Inline execution that records the units it is handed."""

    name = "recording"

    def __init__(self):
        self.handed: list[list[tuple[int, JobSpec]]] = []

    def run(self, pending):
        self.handed.append(list(pending))
        yield from InlineBackend().run(pending)


class PerUnitBackend(ExecutionBackend):
    """A third-party backend that runs every unit as a cell of its own."""

    name = "per-unit"

    def run(self, pending):
        for index, spec in pending:
            ((_, record, unit_telemetry),) = execute_cell([(0, spec)])
            yield index, record, unit_telemetry


class TestOneBuildPerCell:
    @pytest.mark.parametrize("backend", ["inline", "auto"])
    def test_build_runs_once_per_cell(self, builds, backend):
        # One worker: "auto" runs inline, so every build happens here.
        units = scattered_units()
        run_units(units, backend=backend)
        assert len(builds) == num_cells(units)
        assert set(builds) == {u.graph for u in units}

    def test_process_workers_build_once_per_cell(self):
        units = scattered_units()
        with telemetry() as session:
            run_units(units, backend="process", workers=2)
        cells = num_cells(units)
        assert session.metrics.counter("graph_build.graphs") == cells
        assert session.metrics.counter("graph_build.shared") == (
            len(units) - cells
        )

    def test_cells_run_in_order_of_first_appearance(self):
        units = scattered_units()
        backend = RecordingBackend()
        run_units(units, backend=backend)
        (handed,) = backend.handed
        order = [index for index, _ in handed]
        expected = sorted(
            range(len(units)),
            key=lambda i: [u.graph for u in units].index(units[i].graph),
        )
        assert order == expected

    def test_per_unit_backend_still_works(self, builds):
        units = scattered_units()
        expected = canonical(execute_unit(u) for u in units)
        builds.clear()
        report = run_units(units, backend=PerUnitBackend())
        assert canonical(report.records) == expected
        assert len(builds) == len(units)  # it just shares nothing


class TestRecordsUnchanged:
    def mixed_units(self) -> list[JobSpec]:
        """Shared-pipeline measures and self-building measures, with
        same-graph units scattered across the list."""
        g1 = GraphSpec.make("regular", seed=3, d=3, n=10)
        g2 = GraphSpec.make("regular", seed=4, d=3, n=12)
        lower = GraphSpec.make("lower_bound_odd", d=3)
        return [
            JobSpec("port_one", g1, optimum="exact"),
            JobSpec("bounded_degree", g2, measure="comparison"),
            JobSpec("regular_odd", g1, measure="phase_split"),
            JobSpec("regular_odd", lower, measure="adversary"),
            JobSpec("regular_odd", g1, measure="messages"),
            figure_unit("4"),
            JobSpec("port_one", g2, measure="messages"),
            JobSpec("bounded_degree", g1, measure="comparison"),
            JobSpec("port_one", lower, measure="adversary"),
            JobSpec("regular_odd", g2, optimum="exact"),
            JobSpec("bounded_degree", g1, optimum="auto", label="again"),
        ]

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_records_byte_identical_to_one_unit_at_a_time(self, backend):
        units = self.mixed_units()
        expected = [execute_unit(u).to_json_dict() for u in units]
        report = run_units(units, backend=backend, workers=2)
        assert [r.to_json_dict() for r in report.records] == expected

    def test_cache_entries_stay_one_per_unit(self, tmp_path):
        units = self.mixed_units()
        cache = ResultCache(tmp_path)
        run_units(units, backend="inline", cache=cache)
        assert sorted(cache.keys()) == sorted(cache_key(u) for u in units)
        rerun = run_units(units, backend="inline", cache=cache)
        assert rerun.cache_hits == len(units)


def tracked_graphs(ids: set[int]) -> list[PortNumberedGraph]:
    """The graphs among *ids* still on the collector's list
    (``PortNumberedGraph`` has no weakref slot, so look for them there)."""
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, PortNumberedGraph) and id(obj) in ids
    ]


def live_graphs(ids: set[int]) -> list[PortNumberedGraph]:
    """The reachable graphs among *ids*."""
    gc.collect()
    return tracked_graphs(ids)


class TestGraphLifetime:
    @pytest.mark.parametrize("backend", ["inline", "auto"])
    def test_no_graph_outlives_its_cell(self, monkeypatch, backend):
        built: set[int] = set()
        alive_at_build: list[int] = []
        original = GraphSpec.build

        def build(self):
            # the previous cells' graphs must be gone already
            alive_at_build.append(len(live_graphs(built)))
            graph = original(self)
            built.add(id(graph))
            return graph

        monkeypatch.setattr(GraphSpec, "build", build)
        units = scattered_units()
        report = run_units(units, backend=backend)
        assert len(report.records) == len(units)
        assert alive_at_build == [0] * num_cells(units)
        assert live_graphs(built) == []

    def test_graphs_freed_by_refcount(self, monkeypatch):
        """A cell's graph, its compiled form and the vector view are
        freed when the cell ends, without waiting for the collector:
        nothing on them points back at what holds them."""
        built: set[int] = set()
        uncollected_at_build: list[int] = []
        original = GraphSpec.build

        def build(self):
            uncollected_at_build.append(len(tracked_graphs(built)))
            graph = original(self)
            built.add(id(graph))
            return graph

        monkeypatch.setattr(GraphSpec, "build", build)
        # The regular cells build arrays directly; the bounded ones take
        # the networkx route and a dict-built compiled form.
        units = scattered_units() + [
            JobSpec(algorithm, GraphSpec.make(
                "bounded", seed=seed, n=12, max_degree=3
            ), optimum="none")
            for seed in (1, 2)
            for algorithm in ("port_one", "bounded_degree")
        ]
        gc.collect()
        gc.disable()
        try:
            report = run_units(units, backend="inline")
            uncollected = tracked_graphs(built)
        finally:
            gc.enable()
        assert len(report.records) == len(units)
        assert uncollected_at_build == [0] * num_cells(units)
        assert uncollected == []


class TestExactOptimumOncePerCell:
    def test_branch_and_bound_runs_once_per_graph(self, monkeypatch):
        import repro.eds.exact as exact

        searched = []
        original = exact.minimum_maximal_matching

        def counting(graph, **kwargs):
            searched.append(graph)
            return original(graph, **kwargs)

        monkeypatch.setattr(exact, "minimum_maximal_matching", counting)
        units = GRID.override(sizes=(10,), optimum="exact").expand()
        report = run_units(units, backend="inline")
        assert len(searched) == num_cells(units)
        optima = {}
        for unit, record in zip(units, report.records):
            assert record.optimum_exact
            optima.setdefault(unit.graph, set()).add(record.optimum)
        assert all(len(values) == 1 for values in optima.values())


class TestFailureInACell:
    def test_failure_mid_cell_raises_after_earlier_cells_cached(
        self, tmp_path, monkeypatch
    ):
        units = grid_units()
        target = units[4]  # the middle of the second cell
        original = QualityMeasure.measure

        def failing(self, graph, run):
            if run.spec == target:
                raise RuntimeError("boom")
            return original(self, graph, run)

        monkeypatch.setattr(QualityMeasure, "measure", failing)
        cache = ResultCache(tmp_path)
        with pytest.raises(RuntimeError, match="boom"):
            run_units(units, backend="inline", cache=cache)
        cached = set(cache.keys())
        first_cell = [u for u in units if u.graph == units[0].graph]
        assert {cache_key(u) for u in first_cell} <= cached
        assert cache_key(units[3]) in cached  # same cell, before the fault
        assert cache_key(target) not in cached
