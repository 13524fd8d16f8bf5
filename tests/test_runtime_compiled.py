"""Differential tests: both engines against the reference loop.

The compiled per-node loop and the vector kernels must be
*observationally identical* to the reference loop of
``tests/reference_loop.py``, which routes every message through the
graph's ``(d, p)`` dicts instead of its arrays: same outputs, same
round counts, and the same full message traces.  This suite asserts
exactly that across every registered simulator-driven algorithm × every
plain graph family at two sizes, plus the structural edge cases (loops,
parallel edges, degree-0 nodes, the empty graph), checks that the
reference does not read the arrays under test, and pins the engine
contract that the rewrite left every content address and cached record
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.cache import ResultCache, cache_key
from repro.engine.executor import execute_unit, run_units
from repro.engine.spec import JobSpec
from repro.portgraph import PortGraphBuilder
from repro.registry.algorithms import algorithm_names, get_algorithm
from repro.registry.families import family_names, get_family
from repro.runtime import (
    ENGINES,
    NodeProgram,
    run_anonymous,
    use_engine,
)
from repro.runtime.scheduler import _resolve_engine

from tests.reference_loop import REFERENCE, RUNNABLE, run_under

FIXTURES = Path(__file__).parent / "data"

#: Two instances per plain (non-lower-bound, non-artifact) family.
FAMILY_INSTANCES: dict[str, tuple[dict, dict]] = {
    "regular": ({"d": 3, "n": 10}, {"d": 4, "n": 16}),
    "pairing_regular": ({"d": 3, "n": 8}, {"d": 4, "n": 9}),
    "cycle": ({"n": 5}, {"n": 12}),
    "complete": ({"n": 4}, {"n": 7}),
    "hypercube": ({"dim": 2}, {"dim": 3}),
    "torus": ({"rows": 3, "cols": 3}, {"rows": 3, "cols": 5}),
    "crown": ({"k": 3}, {"k": 5}),
    "matching_union": ({"pairs": 2}, {"pairs": 5}),
    "bounded": ({"n": 10, "max_degree": 3}, {"n": 18, "max_degree": 5}),
    "path": ({"n": 4}, {"n": 11}),
    "grid": ({"rows": 2, "cols": 4}, {"rows": 3, "cols": 4}),
    "tree": ({"n": 8}, {"n": 15}),
    "star": ({"leaves": 3}, {"leaves": 7}),
    "caterpillar": ({"spine": 3, "legs": 1}, {"spine": 4, "legs": 2}),
}

#: Families the matrix deliberately skips: adversarial constructions
#: (driven through the adversary confrontation, not plain runs) and the
#: figure-artifact pseudo-family.
EXCLUDED_FAMILIES = {"lower_bound_even", "lower_bound_odd", "figure"}

#: ``central`` algorithms never enter the scheduler.
SIMULATED_MODELS = {"anonymous", "identified", "randomized"}


def simulated_algorithms() -> list[str]:
    # Built-ins only: examples and plugin tests register extra names in
    # the process-wide registry, and the matrix must not depend on which
    # test module ran first.
    return [
        name
        for name in algorithm_names()
        if get_algorithm(name).model in SIMULATED_MODELS
        and get_algorithm(name).origin.startswith("repro.")
    ]


def build(family: str, params: dict):
    seed = 7 if "seed" not in params else params["seed"]
    return get_family(family).make(params, seed)


def traced_run(name: str, graph, engine: str):
    """*name*'s traced run on one of ``RUNNABLE``."""
    bound = get_algorithm(name).resolve(rng_seed=11)
    assert bound.traced is not None
    with run_under(engine):
        return bound.traced(graph)


def assert_identical(reference, candidate, context: str) -> None:
    assert candidate.outputs == reference.outputs, f"{context}: outputs"
    assert candidate.rounds == reference.rounds, f"{context}: rounds"
    assert candidate.trace == reference.trace, f"{context}: trace"


class TestMatrixCoverage:
    def test_every_plain_family_has_instances(self):
        builtin = {
            name
            for name in family_names()
            if getattr(
                get_family(name).build, "__module__", ""
            ).startswith("repro.")
        }
        assert builtin - EXCLUDED_FAMILIES == set(FAMILY_INSTANCES), (
            "a graph family joined the registry without differential "
            "coverage; add instances to FAMILY_INSTANCES"
        )

    def test_simulated_algorithms_nonempty(self):
        names = simulated_algorithms()
        # the paper algorithms, the baselines, and the id/randomized ones
        assert {"port_one", "regular_odd", "bounded_degree",
                "ids_greedy", "randomized_matching"} <= set(names)


@pytest.mark.parametrize("family", sorted(FAMILY_INSTANCES))
@pytest.mark.parametrize("which", [0, 1])
def test_differential_full_matrix(family: str, which: int):
    """Compiled and vector runs equal the reference loop everywhere."""
    graph = build(family, FAMILY_INSTANCES[family][which])
    for name in simulated_algorithms():
        reference = traced_run(name, graph, REFERENCE)
        for engine in ENGINES:
            candidate = traced_run(name, graph, engine)
            assert_identical(
                reference, candidate, f"{name} on {family}#{which} ({engine})"
            )


class TestEdgeCases:
    """Loops, parallel edges, degree-0 nodes, and the empty graph."""

    def _multigraph(self):
        builder = PortGraphBuilder()
        builder.add_nodes({"a": 3, "b": 5})
        builder.connect("a", 1, "a", 2)  # loop
        builder.connect("a", 3, "b", 1)
        builder.connect("b", 2, "b", 3)  # loop
        builder.connect("b", 4, "b", 5)  # second loop
        return builder.build()

    def _parallel_edges(self):
        builder = PortGraphBuilder()
        builder.add_nodes({"u": 2, "v": 2})
        builder.connect("u", 1, "v", 2)
        builder.connect("u", 2, "v", 1)
        return builder.build()

    def _with_isolated(self):
        builder = PortGraphBuilder()
        builder.add_nodes({"u": 1, "v": 1, "w": 0})
        builder.connect("u", 1, "v", 1)
        return builder.build()

    def _isolated_after_hub(self):
        # The last node with ports has degree 3, then isolated nodes:
        # a per-node reduction must still see all three of its ports,
        # and the last one leads to the smallest identifier.
        builder = PortGraphBuilder()
        builder.add_nodes({"a": 1, "b": 1, "c": 1, "h": 3, "w": 0, "x": 0})
        builder.connect("h", 1, "c", 1)
        builder.connect("h", 2, "b", 1)
        builder.connect("h", 3, "a", 1)
        return builder.build()

    def _empty(self):
        builder = PortGraphBuilder()
        builder.add_nodes({"x": 0, "y": 0})
        return builder.build()

    @pytest.mark.parametrize(
        "name", ["port_one", "regular_odd", "bounded_degree", "ids_greedy"]
    )
    def test_structural_edge_cases(self, name: str):
        for tag, graph in (
            ("multigraph", self._multigraph()),
            ("parallel", self._parallel_edges()),
            ("isolated", self._with_isolated()),
            ("isolated after hub", self._isolated_after_hub()),
            ("empty", self._empty()),
        ):
            reference = traced_run(name, graph, REFERENCE)
            for engine in ENGINES:
                candidate = traced_run(name, graph, engine)
                assert_identical(
                    reference, candidate, f"{name} on {tag} ({engine})"
                )

    def test_empty_graph_zero_rounds(self):
        result = run_anonymous(
            self._empty(), lambda degree: _NeverSends(degree)
        )
        assert result.rounds == 0
        assert result.outputs == {"x": frozenset(), "y": frozenset()}


class _NeverSends(NodeProgram):
    def send(self, rnd):
        return {}

    def receive(self, rnd, inbox):
        self.halt()


class _ChattyLeafHalter(NodeProgram):
    """Degree-1 nodes halt after round 0; others keep sending to them."""

    def send(self, rnd):
        return {i: "ping" for i in range(1, self.degree + 1)}

    def receive(self, rnd, inbox):
        if self.degree == 1 or rnd >= 2:
            self.halt()


def _swap_partners(cg) -> None:
    """Re-pair two edges ``a–b`` and ``c–e`` of *cg* as ``a–e`` and
    ``c–b`` in its ``mate`` array, in place: still an involution, but no
    longer the graph's ``p``.  The two edges share no node."""
    mate, owner = cg.mate, cg.port_node
    a = next(g for g in range(cg.num_ports) if mate[g] != g)
    b = mate[a]
    taken = {owner[a], owner[b]}
    c = next(
        g for g in range(cg.num_ports)
        if mate[g] != g and owner[g] not in taken
        and owner[mate[g]] not in taken
    )
    e = mate[c]
    mate[a], mate[e] = e, a
    mate[c], mate[b] = b, c


class TestReferenceIndependence:
    """The reference reads the ``(d, p)`` dicts, not the arrays under
    test: corrupting ``mate`` moves the compiled run off the reference,
    and the reference's own run does not move."""

    @pytest.mark.parametrize("family", ["bounded", "tree", "crown"])
    @pytest.mark.parametrize(
        "name", ["port_one", "bounded_degree", "ids_greedy"]
    )
    def test_mate_swap_caught(self, family: str, name: str):
        graph = build(family, FAMILY_INSTANCES[family][1])
        reference = traced_run(name, graph, REFERENCE)
        _swap_partners(graph.compiled())
        assert traced_run(name, graph, REFERENCE) == reference
        assert traced_run(name, graph, "compiled").trace != reference.trace


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("vector", "compiled")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            _resolve_engine("vectorised")

    def test_use_engine_restores(self):
        assert _resolve_engine(None) == "vector"
        with use_engine("compiled"):
            assert _resolve_engine(None) == "compiled"
        assert _resolve_engine(None) == "vector"


class TestDroppedSends:
    """Satellite: sends to halted nodes are recorded *and* flagged."""

    def _star(self):
        builder = PortGraphBuilder()
        builder.add_nodes({"hub": 3, "l1": 1, "l2": 1, "l3": 1})
        for i, leaf in enumerate(("l1", "l2", "l3"), start=1):
            builder.connect("hub", i, leaf, 1)
        return builder.build()

    @pytest.mark.parametrize("engine", RUNNABLE)
    def test_dropped_flagged_consistently(self, engine: str):
        with run_under(engine):
            result = run_anonymous(
                self._star(), _ChattyLeafHalter, record_trace=True
            )
        trace = result.trace
        # round 0: all 6 sends delivered; rounds 1-2: the hub's 3 sends
        # are dropped (leaves halted in round 0)
        assert trace.rounds[0].dropped_count == 0
        assert trace.rounds[1].dropped_count == 3
        assert trace.rounds[1].delivered_count == 0
        assert all(m.dropped for m in trace.rounds[1].messages)
        # the historical count keeps counting dropped sends (cache
        # stability); the delivered view subtracts them
        assert trace.total_messages == 12
        assert trace.total_dropped == 6
        assert trace.total_delivered == 6
        assert "dropped (sent to halted nodes): 6" in trace.summary()

    def test_no_drops_no_summary_line(self, triangle):
        result = run_anonymous(triangle, _NeverSends, record_trace=True)
        assert result.trace.total_dropped == 0
        assert "dropped" not in result.trace.summary()

    @pytest.mark.parametrize("engine", RUNNABLE)
    def test_strict_delivery_raises_on_every_engine(self, engine: str):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="sent to halted node"):
            with run_under(engine):
                run_anonymous(
                    self._star(), _ChattyLeafHalter, strict_delivery=True
                )

    @pytest.mark.parametrize("engine", RUNNABLE)
    def test_strict_delivery_batch_path(self, engine: str):
        """ids_greedy halts nodes at different times, so its *kernel*
        routing (not just the per-node loop) must honour strict
        delivery with the same error shape as the reference."""
        from repro.algorithms.maximal_matching_ids import (
            GreedyMaximalMatchingIds,
        )
        from repro.exceptions import SimulationError
        from repro.runtime import run_identified

        graph = build("regular", {"d": 3, "n": 8})
        with pytest.raises(SimulationError, match="sent to halted node"):
            with run_under(engine):
                run_identified(
                    graph, GreedyMaximalMatchingIds, strict_delivery=True
                )


class TestCacheStability:
    """Records and content addresses written before the rewrite must
    survive it: same keys, same bytes, warm caches keep hitting."""

    def fixture_entries(self):
        with (FIXTURES / "pre_refactor_records.json").open() as handle:
            return json.load(handle)

    def test_keys_unchanged(self):
        for entry in self.fixture_entries():
            spec = JobSpec.from_json_dict(entry["spec"])
            assert cache_key(spec) == entry["key"]

    def test_records_reproduced_bit_for_bit(self):
        for entry in self.fixture_entries():
            spec = JobSpec.from_json_dict(entry["spec"])
            assert execute_unit(spec).to_json_dict() == entry["record"]

    def _assert_reproduced_under(self, engine: str) -> None:
        with use_engine(engine):
            for entry in self.fixture_entries():
                spec = JobSpec.from_json_dict(entry["spec"])
                assert cache_key(spec) == entry["key"]
                assert execute_unit(spec).to_json_dict() == entry["record"]

    def test_records_reproduced_with_vector_engine(self):
        """Cache keys and record bytes are engine-independent: the same
        units recomputed under the vector kernels reproduce the
        pre-refactor records bit for bit."""
        self._assert_reproduced_under("vector")

    def test_records_reproduced_with_compiled_engine(self):
        """... and so do the compiled per-node programs."""
        self._assert_reproduced_under("compiled")

    def test_pre_refactor_cache_entry_hits(self, tmp_path):
        entries = self.fixture_entries()
        cache = ResultCache(tmp_path / "cache")
        for entry in entries:
            cache.put(entry["key"], entry["record"])
        specs = [JobSpec.from_json_dict(e["spec"]) for e in entries]
        report = run_units(specs, cache=cache)
        assert report.cache_hits == len(entries)
        assert report.computed == 0
        assert [r.to_json_dict() for r in report.records] == [
            e["record"] for e in entries
        ]
