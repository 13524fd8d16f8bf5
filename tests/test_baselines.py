"""Tests for the repro.baselines comparison-algorithm subsystem.

The contracts:

* all four baselines are registered with the declared models and drop
  into the engine by name (ratio / rounds / messages, like any
  algorithm);
* every baseline outputs a feasible EDS across the whole built-in
  family matrix (the engine's feasibility check would raise — here we
  additionally cross-check the line-graph domination equivalence);
* ``central_optimal`` is exactly optimal, ``greedy_mds_line`` is never
  worse than the span-greedy guarantee needs it to be on the tested
  instances, and ``lp_rounding`` honours its closed-form round count;
* results are deterministic: re-running a unit (randomised rounding
  included) reproduces byte-identical records.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.baselines import BASELINE_ALGORITHMS
from repro.baselines.lp_rounding import doubling_phases
from repro.eds.properties import is_edge_dominating_set
from repro.engine import GraphSpec, JobSpec, execute_unit
from repro.registry import (
    UnknownParameterError,
    algorithm_names,
    get_algorithm,
    resolve,
)

#: (family, params, seed) cells covering every built-in plain family.
FAMILY_MATRIX = [
    ("cycle", {"n": 8}, None),
    ("cycle", {"n": 9}, None),
    ("path", {"n": 7}, None),
    ("star", {"leaves": 5}, None),
    ("grid", {"rows": 3, "cols": 4}, None),
    ("caterpillar", {"spine": 4, "legs": 2}, None),
    ("tree", {"n": 12}, 3),
    ("regular", {"d": 3, "n": 10}, 0),
    ("regular", {"d": 4, "n": 12}, 1),
    ("bounded", {"n": 14, "max_degree": 4}, 2),
    ("complete", {"n": 6}, None),
    ("crown", {"k": 4}, None),
    ("hypercube", {"dim": 3}, None),
    ("torus", {"rows": 3, "cols": 4}, None),
    ("matching_union", {"pairs": 4}, None),
]


class TestRegistration:
    def test_all_baselines_registered(self):
        assert set(BASELINE_ALGORITHMS) <= set(algorithm_names())

    def test_declared_models(self):
        assert get_algorithm("greedy_mds_line").model == "identified"
        assert get_algorithm("lp_rounding").model == "randomized"
        assert get_algorithm("forest_dds").model == "identified"
        assert get_algorithm("central_optimal").model == "central"

    def test_lp_rounding_needs_rng(self):
        assert get_algorithm("lp_rounding").needs_rng

    def test_declared_params(self):
        assert get_algorithm("lp_rounding").params == ("delta",)
        assert get_algorithm("forest_dds").params == ("arboricity",)
        with pytest.raises(UnknownParameterError):
            resolve("greedy_mds_line", {"delta": 3})

    def test_origins_point_at_baseline_modules(self):
        assert get_algorithm("greedy_mds_line").origin == (
            "repro.baselines.greedy_mds"
        )
        assert get_algorithm("forest_dds").origin == "repro.baselines.forest"


class TestFeasibility:
    @pytest.mark.parametrize("algorithm", BASELINE_ALGORITHMS)
    @pytest.mark.parametrize("family,params,seed", FAMILY_MATRIX)
    def test_feasible_eds_on_family_matrix(
        self, algorithm, family, params, seed
    ):
        # run_one routes through the quality measure, whose feasibility
        # check raises AlgorithmContractError on any non-EDS output.
        record = api.run_one(
            algorithm, api.graph(family, seed=seed, **params),
            optimum="exact",
        )
        assert record.solution_size >= record.optimum
        assert record.ratio >= 1

    @pytest.mark.parametrize(
        "algorithm", ["greedy_mds_line", "forest_dds"]
    )
    def test_output_dominates_the_line_graph(self, algorithm):
        from repro.eds.linegraph import is_dominating_set, line_graph_adjacency
        from repro.generators.bounded import random_bounded_degree

        graph = random_bounded_degree(16, 4, seed=5)
        bound = resolve(algorithm)
        edge_set, _rounds = bound.run(graph)
        assert is_edge_dominating_set(graph, edge_set)
        assert is_dominating_set(line_graph_adjacency(graph), edge_set)


class TestQuality:
    @pytest.mark.parametrize("family,params,seed", FAMILY_MATRIX)
    def test_central_optimal_is_exactly_optimal(self, family, params, seed):
        record = api.run_one(
            "central_optimal", api.graph(family, seed=seed, **params),
            optimum="exact",
        )
        assert record.solution_size == record.optimum
        assert record.ratio == 1
        assert record.rounds == 0

    def test_greedy_beats_lp_rounding_on_regular(self):
        # The span-greedy heuristic tracks the optimum closely; generic
        # LP rounding pays its log-factor.  Aggregated over a few seeds
        # the ordering is stable.
        graphs = [api.graph("regular", seed=s, d=3, n=16) for s in range(3)]
        greedy = sum(
            api.run_one("greedy_mds_line", g, optimum="exact").ratio
            for g in graphs
        )
        lp = sum(
            api.run_one("lp_rounding", g, optimum="exact").ratio
            for g in graphs
        )
        assert greedy < lp


class TestRounds:
    def test_lp_rounding_round_count_closed_form(self):
        # 2·⌈log2(2Δ)⌉ doubling rounds + flip + fix-up.
        for d, n in [(3, 10), (4, 12)]:
            record = api.run_one(
                "lp_rounding", api.graph("regular", seed=0, d=d, n=n),
                optimum="none",
            )
            assert record.rounds == 2 * doubling_phases(d) + 2

    def test_doubling_phases(self):
        assert doubling_phases(1) == 1
        assert doubling_phases(3) == 3  # 2Δ = 6 → ⌈log2 6⌉ = 3
        assert doubling_phases(4) == 3  # 2Δ = 8 → exactly 3
        assert doubling_phases(5) == 4

    def test_greedy_phases_bounded_by_edges(self):
        from repro.generators.regular import random_regular

        graph = random_regular(4, 14, seed=7)
        _, rounds = resolve("greedy_mds_line").run(graph)
        assert rounds <= 1 + 3 * graph.num_edges


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", BASELINE_ALGORITHMS)
    def test_unit_reexecution_is_byte_identical(self, algorithm):
        unit = JobSpec(
            algorithm=algorithm,
            graph=GraphSpec.make("regular", seed=4, d=3, n=12),
            measure="comparison",
        )
        first = execute_unit(unit)
        second = execute_unit(unit)
        assert first.canonical() == second.canonical()

    def test_lp_rounding_seed_sensitivity(self):
        # Different work units derive different coins; identical units
        # replay identical coins.  (Both may collide in size on tiny
        # graphs, so compare the actual edge sets.)
        graph = api.graph("regular", seed=9, d=3, n=16)
        one = api.run_one("lp_rounding", graph, optimum="none")
        two = api.run_one("lp_rounding", graph, optimum="none",
                          label="other-unit")
        assert one.key != two.key  # label changes the content address


class TestComparisonMeasure:
    def test_messages_populated_for_every_model(self):
        for algorithm, expect_traffic in [
            ("port_one", True),
            ("greedy_mds_line", True),
            ("lp_rounding", True),
            ("forest_dds", True),
            ("central_optimal", False),
        ]:
            record = api.run_one(
                algorithm, api.graph("regular", seed=1, d=3, n=10),
                measure="comparison",
            )
            assert record.messages is not None
            assert (record.messages > 0) == expect_traffic
            assert record.has_optimum  # quality axes ride along
