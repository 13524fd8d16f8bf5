"""Tests for the synchronous simulator (repro.runtime)."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    InconsistentOutputError,
    RoundLimitExceeded,
    SimulationError,
)
from repro.portgraph import PortGraphBuilder, from_networkx, random_lift
from repro.algorithms import GreedyMaximalMatchingIds
from repro.runtime import (
    ENGINES,
    NodeProgram,
    check_consistency,
    decode_edge_set,
    edge_set_to_outputs,
    run_anonymous,
    run_identified,
    use_engine,
)

from tests.conftest import port_graphs


class HaltImmediately(NodeProgram):
    """Outputs the empty set in round 0 without communicating."""

    def send(self, rnd):
        return {}

    def receive(self, rnd, inbox):
        self.halt()


class OutputAllPorts(NodeProgram):
    """Selects every incident edge."""

    def send(self, rnd):
        return {}

    def receive(self, rnd, inbox):
        self.halt(set(range(1, self.degree + 1)))


class EchoOnce(NodeProgram):
    """Round 0: send own degree everywhere; halt with ports whose
    neighbour has strictly larger degree."""

    def send(self, rnd):
        return {i: self.degree for i in range(1, self.degree + 1)}

    def receive(self, rnd, inbox):
        bigger = {i for i, d in inbox.items() if d > self.degree}
        # Not internally consistent in general; used only for plumbing
        # tests that bypass edge-set decoding.
        self._bigger = bigger
        self.halt(bigger)


class NeverHalts(NodeProgram):
    def send(self, rnd):
        return {}

    def receive(self, rnd, inbox):
        pass


class LearnNeighbourPort(NodeProgram):
    """Round 0: send my port number over each port; round 1: halt with the
    set of ports whose received peer port number equals 1."""

    def send(self, rnd):
        if rnd == 0:
            return {i: i for i in range(1, self.degree + 1)}
        return {}

    def receive(self, rnd, inbox):
        if rnd == 0:
            chosen = {i for i, j in inbox.items() if j == 1 or i == 1}
            self.halt(chosen)


class TestSchedulerBasics:
    def test_all_halt_round_zero(self, triangle):
        result = run_anonymous(triangle, HaltImmediately)
        assert result.rounds == 1
        assert all(result.outputs[v] == frozenset() for v in triangle.nodes)
        assert result.edge_set() == frozenset()

    def test_output_all_ports_selects_all_edges(self, triangle):
        result = run_anonymous(triangle, OutputAllPorts)
        assert result.edge_set() == frozenset(triangle.edges)

    def test_round_limit(self, triangle):
        with pytest.raises(RoundLimitExceeded):
            run_anonymous(triangle, NeverHalts, max_rounds=10)

    def test_messages_routed_through_involution(self):
        # u:1 -- v:2,  v:1 -- w:1.  LearnNeighbourPort marks edges touching
        # port 1 on either side, i.e. both edges here.
        b = PortGraphBuilder()
        b.add_nodes({"u": 1, "v": 2, "w": 1})
        b.connect("u", 1, "v", 2)
        b.connect("v", 1, "w", 1)
        g = b.build()
        result = run_anonymous(g, LearnNeighbourPort)
        assert result.outputs["u"] == {1}
        assert result.outputs["v"] == {1, 2}
        assert result.outputs["w"] == {1}
        assert len(result.edge_set()) == 2

    def test_degree_zero_nodes_halt_immediately(self):
        g = from_networkx(nx.empty_graph(3))
        result = run_anonymous(g, LearnNeighbourPort)
        assert result.rounds == 0
        assert all(result.outputs[v] == frozenset() for v in g.nodes)

    def test_invalid_send_port_raises(self, triangle):
        class BadSender(NodeProgram):
            def send(self, rnd):
                return {99: "x"}

            def receive(self, rnd, inbox):
                self.halt()

        with pytest.raises(SimulationError):
            run_anonymous(triangle, BadSender)

    def test_invalid_halt_port_raises(self, triangle):
        class BadHalter(NodeProgram):
            def send(self, rnd):
                return {}

            def receive(self, rnd, inbox):
                self.halt({99})

        with pytest.raises(SimulationError):
            run_anonymous(triangle, BadHalter)

    def test_trace_recording(self, triangle):
        result = run_anonymous(triangle, LearnNeighbourPort, record_trace=True)
        assert result.trace is not None
        assert len(result.trace) == result.rounds
        # each of 3 nodes sends on 2 ports in round 0
        assert result.trace.rounds[0].message_count == 6
        assert result.trace.total_messages == 6
        assert "rounds" in result.trace.summary()

    def test_loops_deliver_to_self(self, multigraph_m):
        class LoopEcho(NodeProgram):
            def send(self, rnd):
                return {i: ("ping", i) for i in range(1, self.degree + 1)}

            def receive(self, rnd, inbox):
                self.received = dict(inbox)
                self.halt()

        result = run_anonymous(multigraph_m, LoopEcho, record_trace=True)
        # every port receives exactly one message (involution is total)
        for msg in result.trace.rounds[0].messages:
            assert msg.payload[0] == "ping"
        assert result.trace.rounds[0].message_count == 7  # 3 + 4 ports


class TestIdentifiedRunner:
    def test_ids_delivered(self, triangle):
        class OutputId(NodeProgram):
            def __init__(self, degree, uid):
                super().__init__(degree)
                self.uid = uid

            def send(self, rnd):
                return {}

            def receive(self, rnd, inbox):
                self.halt()

        result = run_identified(triangle, OutputId)
        assert result.rounds == 1

    def test_duplicate_ids_rejected(self, triangle):
        with pytest.raises(SimulationError):
            run_identified(
                triangle,
                lambda d, uid: HaltImmediately(d),
                ids={v: 0 for v in triangle.nodes},
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ids_missing_a_node_rejected(self, triangle, engine):
        first, *rest = triangle.nodes
        ids = {v: k for k, v in enumerate(rest)}
        with pytest.raises(
            SimulationError, match=f"ids give node {first!r} no identifier"
        ):
            with use_engine(engine):
                run_identified(triangle, GreedyMaximalMatchingIds, ids=ids)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ids_naming_a_stranger_rejected(self, triangle, engine):
        ids = {v: k for k, v in enumerate(triangle.nodes)}
        ids["stranger"] = len(ids)
        with pytest.raises(
            SimulationError, match="ids name 'stranger', which is not a node"
        ):
            with use_engine(engine):
                run_identified(triangle, GreedyMaximalMatchingIds, ids=ids)


class TestOutputDecoding:
    def test_consistency_violation_detected(self, path_graph_p2):
        with pytest.raises(InconsistentOutputError):
            check_consistency(
                path_graph_p2,
                {"u": frozenset({1}), "v": frozenset()},
            )

    def test_missing_node_detected(self, path_graph_p2):
        with pytest.raises(InconsistentOutputError):
            check_consistency(path_graph_p2, {"u": frozenset({1})})

    def test_invalid_port_detected(self, path_graph_p2):
        with pytest.raises(InconsistentOutputError):
            check_consistency(
                path_graph_p2,
                {"u": frozenset({7}), "v": frozenset()},
            )

    def test_round_trip_edges_outputs(self, triangle):
        edges = frozenset(triangle.edges)
        outputs = edge_set_to_outputs(triangle, edges)
        assert decode_edge_set(triangle, outputs) == edges

    def test_empty_output_is_consistent(self, triangle):
        outputs = {v: frozenset() for v in triangle.nodes}
        assert decode_edge_set(triangle, outputs) == frozenset()


class TestCoveringInvariance:
    """Paper §2.3: a deterministic algorithm cannot distinguish a graph
    from its covering graph — node v of the lift outputs X(f(v))."""

    @settings(max_examples=25, deadline=None)
    @given(
        g=port_graphs(max_nodes=6),
        fold=st.integers(2, 3),
        seed=st.integers(0, 10**6),
    )
    def test_learn_neighbour_port_lifts(self, g, fold, seed):
        lift, f = random_lift(g, fold, seed=seed)
        base_result = run_anonymous(g, LearnNeighbourPort)
        lift_result = run_anonymous(lift, LearnNeighbourPort)
        for v in lift.nodes:
            assert lift_result.outputs[v] == base_result.outputs[f[v]]

    def test_multigraph_base(self, multigraph_m):
        lift, f = random_lift(multigraph_m, 3, seed=11)
        base_result = run_anonymous(multigraph_m, LearnNeighbourPort)
        lift_result = run_anonymous(lift, LearnNeighbourPort)
        for v in lift.nodes:
            assert lift_result.outputs[v] == base_result.outputs[f[v]]


class HaltByDegreeThenChatter(NodeProgram):
    """Degree-1 nodes halt after round 0; everyone else keeps sending.

    Exercises the halted-recipient path: once the leaves halt, their
    still-running neighbours keep addressing messages to them.
    """

    def send(self, rnd):
        return {i: "ping" for i in range(1, self.degree + 1)}

    def receive(self, rnd, inbox):
        if self.degree == 1:
            self.halt()
        elif rnd >= 2:
            self.halt()


class TestStrictDelivery:
    def _star(self):
        return from_networkx(nx.star_graph(3))

    def test_default_silently_drops(self):
        result = run_anonymous(self._star(), HaltByDegreeThenChatter)
        assert result.rounds == 3

    def test_strict_delivery_raises(self):
        with pytest.raises(SimulationError, match="halted node"):
            run_anonymous(
                self._star(), HaltByDegreeThenChatter, strict_delivery=True
            )

    def test_strict_delivery_passes_when_all_halt_together(self, triangle):
        result = run_anonymous(
            triangle, HaltImmediately, strict_delivery=True
        )
        assert result.rounds == 1

    def test_identified_runner_supports_strict_delivery(self, triangle):
        class OutputNothing(NodeProgram):
            def __init__(self, degree, uid):
                super().__init__(degree)

            def send(self, rnd):
                return {}

            def receive(self, rnd, inbox):
                self.halt()

        result = run_identified(
            triangle, OutputNothing, strict_delivery=True
        )
        assert result.rounds == 1

    def test_paper_algorithms_pass_strict_delivery(self):
        from repro.algorithms.regular_odd import RegularOddEDS
        from repro.generators.regular import random_regular

        graph = random_regular(3, 12, seed=0)
        result = run_anonymous(graph, RegularOddEDS, strict_delivery=True)
        assert result.edge_set()
