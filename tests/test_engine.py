"""Tests for the parallel experiment engine.

Covers the four contracts the engine makes:

* content-addressed keys are stable and collision-sensitive,
* the on-disk cache hits, misses, survives corruption, and writes through,
* parallel execution produces byte-identical records to serial execution,
* per-unit seeding is deterministic regardless of worker count.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.engine import (
    GraphSpec,
    JobSpec,
    ResultCache,
    ResultRecord,
    ResultStore,
    SweepGrid,
    cache_key,
    derive_seed,
    execute_unit,
    get_scenario,
    run_units,
    scenario_names,
)
from repro.registry import family_names


def unit(seed: int = 1, *, label: str = "", algorithm: str = "port_one"):
    return JobSpec(
        algorithm=algorithm,
        graph=GraphSpec.make("regular", seed=seed, d=3, n=12),
        label=label,
    )


SMALL_GRID = SweepGrid(
    name="test",
    algorithms=("port_one", "regular_odd", "bounded_degree"),
    family="regular",
    degrees=(2, 3),
    sizes=(12,),
    seeds=2,
)


class TestSpecs:
    def test_graph_spec_build_and_label(self):
        spec = GraphSpec.make("regular", seed=3, d=3, n=12)
        graph = spec.build()
        assert graph.num_nodes == 12
        assert "regular" in spec.label() and "seed=3" in spec.label()

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            GraphSpec.make("no-such-family", n=4)
        assert "regular" in family_names()

    def test_adversary_requires_lower_bound_family(self):
        with pytest.raises(ValueError):
            JobSpec(
                algorithm="port_one",
                graph=GraphSpec.make("regular", d=2, n=8),
                measure="adversary",
            )

    def test_invalid_measure_and_optimum_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("port_one", GraphSpec.make("cycle", n=5), measure="huh")
        with pytest.raises(ValueError):
            JobSpec("port_one", GraphSpec.make("cycle", n=5), optimum="huh")

    def test_json_round_trip(self):
        spec = unit(seed=9, label="hello")
        assert JobSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_exact_edge_limit_defaults_agree(self):
        import inspect

        from repro import api
        from repro.engine.spec import DEFAULT_EXACT_EDGE_LIMIT

        run_one = inspect.signature(api.run_one).parameters
        assert {
            unit().exact_edge_limit,
            SMALL_GRID.exact_edge_limit,
            run_one["exact_edge_limit"].default,
        } == {DEFAULT_EXACT_EDGE_LIMIT}
        # A spec written without the field keeps the limit it meant.
        data = unit().to_json_dict()
        del data["exact_edge_limit"]
        assert JobSpec.from_json_dict(data).exact_edge_limit == 48


class TestCacheKeys:
    def test_key_is_stable(self):
        assert cache_key(unit()) == cache_key(unit())

    def test_key_survives_json_round_trip(self):
        spec = unit(seed=5)
        clone = JobSpec.from_json_dict(json.loads(json.dumps(
            spec.to_json_dict()
        )))
        assert cache_key(clone) == cache_key(spec)

    def test_key_ignores_param_declaration_order(self):
        a = JobSpec("port_one", GraphSpec.make("regular", seed=0, d=3, n=12))
        b = JobSpec("port_one", GraphSpec.make("regular", seed=0, n=12, d=3))
        assert cache_key(a) == cache_key(b)

    @pytest.mark.parametrize(
        "other",
        [
            unit(seed=2),
            unit(algorithm="bounded_degree"),
            unit(label="renamed"),
            JobSpec("port_one", GraphSpec.make("regular", seed=1, d=3, n=12),
                    optimum="none"),
        ],
    )
    def test_different_units_get_different_keys(self, other):
        assert cache_key(other) != cache_key(unit())


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(unit())
        assert cache.get(key) is None
        record = execute_unit(unit())
        cache.put(key, record.to_json_dict())
        assert cache.get(key) == record
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(unit())
        cache.put(key, {"x": 1})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache_key(unit()), {"x": 1})
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_run_units_writes_through(self, tmp_path):
        units = SMALL_GRID.expand()
        cache = ResultCache(tmp_path)
        first = run_units(units, cache=cache)
        assert first.cache_hits == 0 and first.computed == len(units)
        second = run_units(units, cache=cache)
        assert second.computed == 0
        assert second.hit_rate == 1.0
        assert [r.canonical() for r in first.records] == [
            r.canonical() for r in second.records
        ]


class TestParallelExecution:
    def test_parallel_equals_serial(self):
        units = SMALL_GRID.expand()
        serial = run_units(units, workers=1)
        parallel = run_units(units, workers=4)
        assert [r.canonical() for r in serial.records] == [
            r.canonical() for r in parallel.records
        ]
        # dataclass-level equality too, not just canonical JSON
        assert serial.records == parallel.records

    def test_partial_cache_plus_workers(self, tmp_path):
        units = SMALL_GRID.expand()
        cache = ResultCache(tmp_path)
        run_units(units[: len(units) // 2], cache=cache)
        report = run_units(units, workers=2, cache=cache)
        assert report.cache_hits == len(units) // 2
        assert [r.canonical() for r in report.records] == [
            r.canonical() for r in run_units(units).records
        ]


class TestSeeding:
    def test_derive_seed_is_stable_and_content_addressed(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert derive_seed("a", 1) != derive_seed("b", 1)

    def test_grid_expansion_is_deterministic(self):
        first = SMALL_GRID.expand()
        second = SMALL_GRID.expand()
        assert first == second
        # per-cell seeds differ across replicates but are deterministic
        seeds = {u.graph.seed for u in first}
        assert len(seeds) > 1

    def test_same_cell_same_seed_across_grids_with_same_name(self):
        other = SMALL_GRID.override(sizes=(12, 16))
        by_coords = {
            (u.algorithm, u.graph): u for u in other.expand()
        }
        for u in SMALL_GRID.expand():
            assert (u.algorithm, u.graph) in by_coords

    def test_regular_odd_skipped_on_even_degrees(self):
        assert not any(
            u.algorithm == "regular_odd" and dict(u.graph.params)["d"] % 2 == 0
            for u in SMALL_GRID.expand()
        )

    def test_infeasible_cells_skipped(self):
        grid = SMALL_GRID.override(degrees=(3,), sizes=(3, 13, 12))
        cells = list(grid.cells())
        assert all(n == 12 for _, n, _ in cells)


class TestMeasures:
    def test_quality_optimum_none_skips_optimum(self):
        record = execute_unit(
            JobSpec("port_one", GraphSpec.make("regular", seed=0, d=3, n=12),
                    optimum="none")
        )
        assert record.optimum == 0 and not record.has_optimum
        assert record.rounds == 1
        assert record.solution_size > 0

    def test_quality_exact_matches_known_tight_case(self):
        record = execute_unit(
            JobSpec(
                algorithm="bounded_degree",
                algorithm_params=(("delta", 1),),
                graph=GraphSpec.make("matching_union", pairs=4),
                optimum="exact",
            )
        )
        assert record.ratio == Fraction(1)
        assert record.optimum_exact

    def test_adversary_record_carries_tightness(self):
        record = execute_unit(
            JobSpec(
                algorithm="regular_odd",
                graph=GraphSpec.make("lower_bound_odd", d=3),
                measure="adversary",
            )
        )
        assert record.extra["tight"] is True
        assert record.ratio == Fraction(
            record.extra["forced_ratio_num"],
            record.extra["forced_ratio_den"],
        )

    def test_message_counting(self):
        record = execute_unit(
            JobSpec("regular_odd",
                    GraphSpec.make("regular", seed=0, d=3, n=12),
                    count_messages=True)
        )
        assert record.messages is not None and record.messages > 0

    def test_phase_split_sizes_ordered(self):
        record = execute_unit(
            JobSpec("regular_odd",
                    GraphSpec.make("regular", seed=7, d=3, n=14),
                    measure="phase_split")
        )
        assert record.solution_size >= record.extra["final_size"]


class TestResultStore:
    def test_jsonl_round_trip(self, tmp_path):
        store = run_units(SMALL_GRID.expand()[:4]).store
        path = tmp_path / "records.jsonl"
        store.to_jsonl(path)
        loaded = ResultStore.from_jsonl(path)
        assert loaded.records == store.records

    def test_summary_and_records(self):
        store = run_units(SMALL_GRID.expand()[:4]).store
        text = store.format_summary()
        assert "algorithm" in text and "units" in text
        assert len(store) == 4
        assert all(record.ratio >= 1 for record in store)


class TestScenarios:
    def test_named_scenarios_expand(self):
        assert set(scenario_names()) >= {"default", "large-regular"}
        units = get_scenario("default").expand()
        assert units
        assert all(isinstance(u, JobSpec) for u in units)

    def test_large_regular_covers_the_headline_grid(self):
        grid = get_scenario("large-regular")
        assert set(grid.degrees) == set(range(2, 11))
        assert max(grid.sizes) == 2048
        assert grid.seeds >= 10
        # no exact solving at that scale
        assert grid.optimum == "lower_bound"

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("nope")


class TestRecordAdapters:
    def test_record_json_round_trip(self):
        record = execute_unit(unit())
        clone = ResultRecord.from_json_dict(
            json.loads(json.dumps(record.to_json_dict()))
        )
        assert clone == record
        assert clone.canonical() == record.canonical()
