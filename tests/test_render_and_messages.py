"""Tests for text rendering and traced message counts."""

from __future__ import annotations

import networkx as nx

from repro.algorithms import PortOneEDS, RegularOddEDS
from repro.generators import random_regular
from repro.portgraph import from_networkx
from repro.portgraph.render import (
    render_edge_set,
    render_graph,
    render_outputs,
)
from repro.runtime import run_anonymous


class TestRenderGraph:
    def test_render_path(self):
        g = from_networkx(nx.path_graph(3))
        text = render_graph(g, title="P3")
        assert "P3" in text
        assert "(deg 2)" in text
        assert "1->" in text

    def test_render_empty(self):
        from repro.portgraph import PortGraphBuilder

        g = PortGraphBuilder().build()
        assert "(empty graph)" in render_graph(g)

    def test_render_loops(self, multigraph_m):
        text = render_graph(multigraph_m)
        assert "s:3" in text  # fixed point rendered as its own target

    def test_render_deterministic(self):
        g = from_networkx(nx.cycle_graph(5))
        assert render_graph(g) == render_graph(g)


class TestRenderEdgesAndOutputs:
    def test_edge_set(self):
        g = from_networkx(nx.path_graph(3))
        text = render_edge_set(g.edges, title="edges:")
        assert text.count("--") == 2

    def test_empty_edge_set(self):
        assert "(empty)" in render_edge_set([])

    def test_directed_loop_rendering(self, multigraph_m):
        loops = [e for e in multigraph_m.edges if e.is_directed_loop]
        assert "loop" in render_edge_set(loops)

    def test_outputs(self):
        g = from_networkx(nx.path_graph(3))
        result = run_anonymous(g, PortOneEDS)
        text = render_outputs(g, result.outputs, title="X:")
        assert "X(" in text


class TestMessageProfile:
    @staticmethod
    def traced(graph, algorithm):
        """The run and its messages per round, read off the trace."""
        result = run_anonymous(graph, algorithm, record_trace=True)
        return result, [r.message_count for r in result.trace.rounds]

    def test_port_one_message_count(self):
        """PortOne sends exactly one message per port, in one round."""
        g = random_regular(4, 10, seed=1)
        result, per_round = self.traced(g, PortOneEDS)
        assert result.rounds == 1
        assert result.trace.total_messages == 4 * 10  # sum of degrees
        assert per_round == [40]

    def test_regular_odd_profile(self):
        g = random_regular(3, 8, seed=2)
        result, per_round = self.traced(g, RegularOddEDS)
        assert result.rounds == RegularOddEDS.total_rounds(3)
        # setup rounds broadcast on every port: 2 rounds of 24 messages
        assert per_round[:2] == [24, 24]
        # pair steps only involve matched ports: strictly less traffic
        assert all(c <= 24 for c in per_round[2:])
        assert result.trace.total_messages < result.rounds * 24

    def test_empty_graph_profile(self):
        g = from_networkx(nx.empty_graph(3))
        result, per_round = self.traced(g, PortOneEDS)
        assert result.trace.total_messages == 0
        assert max(per_round, default=0) == 0
