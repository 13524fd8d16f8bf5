"""Tests for the repro.registry plugin catalogue and the repro.api façade.

Covers the contracts the registry redesign makes:

* names register exactly once (duplicates are loud errors),
* unknown names fail with messages listing every available entry,
* randomised algorithms are engine-reachable and deterministic — the
  same work unit replays the same coins regardless of worker count or
  cache state,
* third-party algorithms / graph families / measures plug in end to end.
"""

from __future__ import annotations

import importlib

import pytest

from repro import api
from repro.algorithms.port_one import PortOneEDS
from repro.engine import (
    GraphSpec,
    JobSpec,
    ResultCache,
    cache_key,
    execute_unit,
    run_units,
    unit_rng_seed,
)
from repro.registry import (
    ALGORITHMS,
    FAMILIES,
    MEASURES,
    DuplicateNameError,
    Measure,
    RegistryError,
    UnknownNameError,
    algorithm_names,
    family_names,
    get_algorithm,
    get_family,
    get_measure,
    measure_names,
    register_algorithm,
    register_anonymous,
    register_central,
    register_graph_family,
    register_measure,
    resolve,
)


def randomized_unit(seed: int = 1, n: int = 16) -> JobSpec:
    return JobSpec(
        algorithm="randomized_matching",
        graph=GraphSpec.make("regular", seed=seed, d=3, n=n),
        optimum="exact",
    )


class TestCatalogue:
    def test_builtin_algorithms_present(self):
        names = algorithm_names()
        assert {"port_one", "regular_odd", "bounded_degree", "ids_greedy",
                "central_greedy", "randomized_matching"} <= set(names)

    def test_builtin_families_present(self):
        assert {"regular", "bounded", "cycle", "lower_bound_even",
                "lower_bound_odd"} <= set(family_names())

    def test_builtin_measures_present(self):
        assert {"quality", "messages", "adversary", "phase_split"} <= set(
            measure_names()
        )

    def test_models_and_rng_declarations(self):
        assert get_algorithm("port_one").model == "anonymous"
        assert get_algorithm("ids_greedy").model == "identified"
        assert get_algorithm("central_greedy").model == "central"
        randomized = get_algorithm("randomized_matching")
        assert randomized.model == "randomized"
        assert randomized.needs_rng
        assert not get_algorithm("port_one").needs_rng

    def test_lower_bound_families_flagged(self):
        assert get_family("lower_bound_odd").lower_bound
        assert not get_family("regular").lower_bound

    def test_measure_flags(self):
        assert get_measure("quality").grid_safe
        assert get_measure("messages").grid_safe
        assert not get_measure("adversary").grid_safe
        assert get_measure("adversary").requires_lower_bound


class TestErrors:
    def test_unknown_algorithm_lists_available(self):
        with pytest.raises(UnknownNameError) as err:
            resolve("no_such_algorithm")
        message = str(err.value)
        assert "no_such_algorithm" in message
        assert "port_one" in message

    def test_unknown_family_lists_available(self):
        with pytest.raises(UnknownNameError) as err:
            get_family("no_such_family")
        assert "regular" in str(err.value)

    def test_unknown_measure_lists_available(self):
        with pytest.raises(UnknownNameError) as err:
            get_measure("no_such_measure")
        assert "quality" in str(err.value)

    def test_unknown_name_error_is_a_key_error(self):
        """Call sites that predate the registry caught KeyError."""
        with pytest.raises(KeyError):
            resolve("no_such_algorithm")
        with pytest.raises(KeyError):
            GraphSpec.make("no_such_family", n=4)

    def test_duplicate_algorithm_rejected(self):
        with pytest.raises(DuplicateNameError):
            register_anonymous("port_one", lambda graph: PortOneEDS)

    def test_duplicate_family_rejected(self):
        with pytest.raises(DuplicateNameError):
            register_graph_family("regular", params=("d", "n"))(
                lambda p, s: None
            )

    def test_duplicate_measure_rejected(self):
        class Clone(Measure):
            name = "quality"

        with pytest.raises(DuplicateNameError):
            register_measure(Clone)

    def test_bad_model_rejected(self):
        with pytest.raises(RegistryError):
            register_algorithm("whatever", model="quantum")

    def test_unknown_algorithm_params_rejected(self):
        with pytest.raises(RegistryError) as err:
            resolve("port_one", {"delta": 3})
        assert "delta" in str(err.value)

    def test_family_param_validation(self):
        with pytest.raises(RegistryError) as err:
            get_family("regular").make({"d": 3}, 0)
        assert "missing" in str(err.value)
        with pytest.raises(RegistryError):
            get_family("regular").make({"d": 3, "n": 8, "zz": 1}, 0)

    def test_unnamed_measure_rejected(self):
        class Nameless(Measure):
            pass

        with pytest.raises(RegistryError):
            register_measure(Nameless)

    def test_param_errors_are_key_errors(self):
        """The pre-registry resolvers raised KeyError for bad params."""
        with pytest.raises(KeyError):
            resolve("port_one", {"bogus": 1})
        with pytest.raises(KeyError):
            get_family("regular").make({"d": 3}, 0)

    def test_pre_load_duplicate_detected_eagerly(self):
        """Registering before the lazy builtins load must still collide
        with a builtin name immediately — and not poison the registry."""
        from repro.registry import Registry

        reg: Registry[int] = Registry(
            "thing", loader=lambda: reg.register("builtin", 1)
        )
        with pytest.raises(DuplicateNameError):
            reg.register("builtin", 2)
        assert reg.get("builtin") == 1  # later lookups still work

    def test_pre_load_replace_overrides_builtin(self):
        from repro.registry import Registry

        reg: Registry[int] = Registry(
            "thing", loader=lambda: reg.register("builtin", 1)
        )
        reg.register("builtin", 2, replace=True)
        assert reg.get("builtin") == 2


class TestRandomizedDeterminism:
    def test_same_unit_same_record(self):
        a = execute_unit(randomized_unit())
        b = execute_unit(randomized_unit())
        assert a == b
        assert a.canonical() == b.canonical()

    def test_rng_seed_is_content_derived(self):
        assert unit_rng_seed(cache_key(randomized_unit())) == unit_rng_seed(
            cache_key(randomized_unit())
        )
        assert unit_rng_seed(cache_key(randomized_unit(seed=1))) != (
            unit_rng_seed(cache_key(randomized_unit(seed=2)))
        )

    def test_different_rng_seeds_explore_different_matchings(self):
        g = GraphSpec.make("cycle", n=16).build()
        outputs = {
            resolve("randomized_matching", rng_seed=s).run(g)[0]
            for s in range(8)
        }
        assert len(outputs) > 1

    def test_randomized_output_is_feasible_and_measured(self):
        record = execute_unit(randomized_unit())
        assert record.solution_size >= 1
        assert record.optimum_exact
        assert record.ratio >= 1

    def test_parallel_equals_serial_for_randomized(self):
        units = [randomized_unit(seed=s) for s in range(6)]
        serial = run_units(units, workers=1)
        parallel = run_units(units, workers=4)
        assert [r.canonical() for r in serial.records] == [
            r.canonical() for r in parallel.records
        ]

    def test_cache_round_trip_is_byte_identical(self, tmp_path):
        units = [randomized_unit(seed=s) for s in range(3)]
        cache = ResultCache(tmp_path)
        first = run_units(units, cache=cache)
        second = run_units(units, cache=cache)
        assert second.cache_hits == len(units)
        assert [r.canonical() for r in first.records] == [
            r.canonical() for r in second.records
        ]

    def test_messages_measure_on_randomized(self):
        record = api.run_one(
            "randomized_matching", api.graph("cycle", n=20, seed=4),
            measure="messages",
        )
        assert record.messages is not None and record.messages > 0
        assert record.extra["max_round_messages"] <= record.messages


class TestLegacyAdapters:
    def test_legacy_shims_are_gone(self):
        """The deprecation shims and the pre-engine runner are gone: the
        registry plus :func:`repro.api.run_one` is the one path."""
        import repro.engine.spec as spec

        assert not hasattr(spec, "graph_families")
        for module in ("runner", "ratio", "messages"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.analysis.{module}")


class TestCustomPlugins:
    """The README 'Extending' walkthrough, as executable contract."""

    def test_custom_algorithm_end_to_end(self):
        from repro.registry import AlgorithmEntry, BoundAlgorithm

        def bind() -> BoundAlgorithm:
            return BoundAlgorithm(
                "take_everything", "central",
                lambda graph: (frozenset(graph.edges), 0),
            )

        entry = AlgorithmEntry(
            name="take_everything", model="central", bind=bind
        )
        with ALGORITHMS.temporarily("take_everything", entry):
            record = api.run_one(
                "take_everything", api.graph("cycle", n=6), optimum="exact"
            )
        assert record.solution_size == 6
        assert record.ratio > 1

    def test_register_central_helper(self):
        register_central("test_all_edges", lambda graph: frozenset(graph.edges))
        try:
            record = api.run_one(
                "test_all_edges", api.graph("path", n=5), optimum="exact"
            )
            assert record.solution_size == 4
        finally:
            ALGORITHMS.unregister("test_all_edges")

    def test_custom_family_end_to_end(self):
        from repro.generators.regular import cycle

        @register_graph_family("test_double_cycle", params=("n",))
        def build(params, seed):
            return cycle(2 * params["n"], seed=seed)

        try:
            spec = api.graph("test_double_cycle", n=5, seed=3)
            graph = spec.build()
            assert graph.num_nodes == 10
            record = api.run_one("port_one", spec)
            assert record.graph_family == "test_double_cycle"
        finally:
            FAMILIES.unregister("test_double_cycle")

    def test_custom_measure_end_to_end(self):
        @register_measure
        class SurplusMeasure(Measure):
            name = "test_surplus"

            def measure(self, graph, run):
                return {
                    "optimum": 1,
                    "optimum_exact": False,
                    "surplus": len(run.edge_set) - 1,
                }

        try:
            record = api.run_one(
                "central_greedy", api.graph("cycle", n=9),
                measure="test_surplus",
            )
            assert record.optimum == 1
            # unknown keys land in the record's extras
            assert record.extra["surplus"] == record.solution_size - 1
        finally:
            MEASURES.unregister("test_surplus")

    def test_temporarily_cleans_up_after_error(self):
        from repro.registry import GraphFamily

        with pytest.raises(RuntimeError):
            with FAMILIES.temporarily(
                "test_transient",
                GraphFamily(name="test_transient", build=lambda p, s: None),
            ):
                raise RuntimeError("boom")
        assert "test_transient" not in FAMILIES


class TestWorkerPluginPropagation:
    """spawn-start workers re-create plugins by importing their modules."""

    def test_origin_recorded_for_builtins_and_plugins(self):
        assert get_algorithm("port_one").origin == "repro.algorithms.port_one"
        assert get_algorithm("randomized_matching").origin == (
            "repro.algorithms.randomized"
        )
        register_central("test_origin_probe",
                         lambda graph: frozenset(graph.edges))
        try:
            assert get_algorithm("test_origin_probe").origin == __name__
        finally:
            ALGORITHMS.unregister("test_origin_probe")

    def test_builtin_units_ship_no_plugin_modules(self):
        from repro.engine.backends.process import _plugin_modules

        assert _plugin_modules([randomized_unit()]) == ()

    def test_figure_units_need_no_algorithm_resolution(self):
        from repro.engine.backends.process import _plugin_modules
        from repro.engine.figures import figure_unit

        # 'figure' names no registered algorithm; plugin collection must
        # honour the measure's uses_algorithm=False instead of resolving.
        assert _plugin_modules([figure_unit("4")]) == ()

    def test_worker_reimports_plugin_module(self, tmp_path, monkeypatch):
        import sys

        from repro.engine.backends.process import _plugin_modules, _worker

        plugin = tmp_path / "eds_plugin_mod.py"
        plugin.write_text(
            "from repro.registry import register_central\n"
            "register_central('plug_all_edges',\n"
            "                 lambda graph: frozenset(graph.edges))\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        __import__("eds_plugin_mod")
        try:
            unit = JobSpec("plug_all_edges", GraphSpec.make("cycle", n=6))
            modules = _plugin_modules([unit])
            assert modules == ("eds_plugin_mod",)
            # One task is one cell: a list of (index, spec dict) pairs.
            payload = ([(0, unit.to_json_dict())], modules, False, False)

            # simulate a spawn worker: fresh interpreter = no plugin
            ALGORITHMS.unregister("plug_all_edges")
            sys.modules.pop("eds_plugin_mod")

            ((index, record, telemetry),) = _worker(payload)
            assert index == 0
            assert record["solution_size"] == 6
            assert telemetry is None
        finally:
            sys.modules.pop("eds_plugin_mod", None)
            if "plug_all_edges" in ALGORITHMS:
                ALGORITHMS.unregister("plug_all_edges")


class TestApiFacade:
    def test_as_cache_normalisation(self, tmp_path):
        assert api.as_cache(None) is None
        assert api.as_cache(False) is None
        cache = ResultCache(tmp_path)
        assert api.as_cache(cache) is cache
        assert str(api.as_cache(str(tmp_path)).root) == str(tmp_path)
        assert str(api.as_cache(True, cache_dir=tmp_path).root) == str(
            tmp_path
        )

    def test_run_one_matches_execute_unit(self):
        unit = JobSpec(
            algorithm="port_one",
            graph=GraphSpec.make("regular", seed=2, d=3, n=12),
        )
        record = api.run_one(
            "port_one", api.graph("regular", seed=2, d=3, n=12)
        )
        assert record.canonical() == execute_unit(unit).canonical()

    def test_run_sweep_accepts_scenario_name_with_overrides(self):
        report = api.run_sweep(
            "default", degrees=(2,), sizes=(12,), seeds=1,
            algorithms=("port_one",),
        )
        assert len(report.records) == 1
        assert report.records[0].algorithm == "port_one"

    def test_run_sweep_accepts_unit_lists(self, tmp_path):
        units = [randomized_unit(seed=s) for s in range(2)]
        out = tmp_path / "records.jsonl"
        report = api.run_sweep(units, jsonl=out)
        assert len(report.records) == 2
        assert out.read_text().count("\n") == 2

    def test_run_sweep_rejects_overrides_on_unit_lists(self):
        with pytest.raises(TypeError):
            api.run_sweep([randomized_unit()], degrees=(3,))

    def test_grid_measure_field_expands(self):
        from repro.engine import SweepGrid

        grid = SweepGrid(
            name="m", algorithms=("randomized_matching",),
            degrees=(2,), sizes=(12,), seeds=1, measure="messages",
        )
        units = grid.expand()
        assert units and all(u.measure == "messages" for u in units)
        report = api.run_sweep(grid)
        assert all(r.messages is not None for r in report.records)
