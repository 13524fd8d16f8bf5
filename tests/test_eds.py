"""Tests for the EDS substrate: properties, exact solver, bounds."""

from __future__ import annotations

from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.eds import (
    bounded_degree_ratio,
    brute_force_minimum_eds_size,
    dominated_edges,
    dominates,
    domination_deficiency,
    eds_lower_bound,
    is_edge_dominating_set,
    maximum_matching_size,
    minimum_eds_size,
    minimum_edge_dominating_set,
    regular_ratio,
    two_approx_eds,
    undominated_edges,
)
from repro.exceptions import AlgorithmContractError
from repro.matching import is_maximal_matching
from repro.portgraph import from_networkx

from tests.conftest import port_graphs


def edges_by_pairs(graph, pairs):
    index = {e.endpoints: e for e in graph.edges}
    return frozenset(index[frozenset(p)] for p in pairs)


class TestProperties:
    def test_dominates_adjacent_and_self(self):
        g = from_networkx(nx.path_graph(3))
        e01, e12 = sorted(g.edges, key=lambda e: repr(e))
        assert dominates(e01, e01)
        assert dominates(e01, e12)

    def test_middle_edge_dominates_path4(self):
        g = from_networkx(nx.path_graph(4))
        middle = edges_by_pairs(g, [(1, 2)])
        assert is_edge_dominating_set(g, middle)
        assert dominated_edges(g, middle) == frozenset(g.edges)
        assert domination_deficiency(g, middle) == 0

    def test_end_edge_not_dominating_path4(self):
        g = from_networkx(nx.path_graph(4))
        end = edges_by_pairs(g, [(0, 1)])
        assert not is_edge_dominating_set(g, end)
        assert len(undominated_edges(g, end)) == 1
        assert domination_deficiency(g, end) == 1

    def test_empty_set_dominates_empty_graph(self):
        g = from_networkx(nx.empty_graph(4))
        assert is_edge_dominating_set(g, frozenset())

    def test_figure1_style_examples(self):
        """Figure 1: an EDS need not be a matching; a maximal matching is
        an EDS; minima coincide."""
        g = from_networkx(nx.path_graph(5))
        # adjacent pair (1,2),(2,3) is an EDS that is not a matching
        eds = edges_by_pairs(g, [(1, 2), (2, 3)])
        assert is_edge_dominating_set(g, eds)
        from repro.matching import is_matching

        assert not is_matching(eds)
        # minimum for P5 (4 edges) is 2
        assert minimum_eds_size(g) == 2


class TestArrayFastPath:
    """The compiled-array feasibility check must agree with the
    set-based definition on every subset, on graphs built from arrays
    (the direct-to-CSR families) and from ``(d, p)`` dicts."""

    def graphs(self):
        from repro.generators.pairing import pairing_regular
        from repro.generators.regular import cycle, torus

        star = from_networkx(nx.star_graph(4))
        return [cycle(7), torus(3, 3), pairing_regular(3, 8, seed=1), star]

    def test_matches_set_semantics_on_all_small_subsets(self):
        from itertools import combinations

        for graph in self.graphs():
            edges = list(graph.edges)
            for k in range(0, min(3, len(edges)) + 1):
                for subset in combinations(edges, k):
                    expected = not undominated_edges(graph, subset)
                    assert is_edge_dominating_set(graph, subset) == expected

    def test_dict_built_graph_checked_on_its_arrays(self, monkeypatch):
        import repro.eds.properties as properties
        from repro.portgraph import PortNumberedGraph

        def refuse(*args):
            raise AssertionError("checked on PortEdge sets")

        g = from_networkx(nx.path_graph(4))
        monkeypatch.setattr(PortNumberedGraph, "_iter_array_edges", refuse)
        monkeypatch.setattr(properties, "undominated_edges", refuse)
        assert not is_edge_dominating_set(g, [])
        assert not is_edge_dominating_set(g, [g.edge_at(0, 1)])
        middle, _ = g.port_between(1, 2)
        assert is_edge_dominating_set(g, [g.edge_at(1, middle)])

    def test_foreign_endpoints_cover_nothing(self):
        from repro.portgraph.ports import PortEdge

        g = self.graphs()[0]  # cycle(7), arrays attached
        foreign = PortEdge.make(100, 1, 200, 1)
        assert not is_edge_dominating_set(g, [foreign])


class TestExact:
    def test_minimum_is_maximal_matching(self):
        g = from_networkx(nx.petersen_graph())
        d = minimum_edge_dominating_set(g)
        assert is_maximal_matching(g, d)
        assert is_edge_dominating_set(g, d)

    def test_known_small_values(self):
        assert minimum_eds_size(from_networkx(nx.star_graph(7))) == 1
        assert minimum_eds_size(from_networkx(nx.cycle_graph(6))) == 2
        assert minimum_eds_size(from_networkx(nx.cycle_graph(9))) == 3
        assert minimum_eds_size(from_networkx(nx.complete_graph(4))) == 2
        assert minimum_eds_size(from_networkx(nx.path_graph(2))) == 1

    @settings(max_examples=25, deadline=None)
    @given(g=port_graphs(max_nodes=7))
    def test_matching_search_equals_subset_search(self, g):
        """Minimum over maximal matchings == minimum over arbitrary edge
        sets (the Yannakakis-Gavril equivalence, paper §1.1)."""
        if g.num_edges > 10:
            return
        assert minimum_eds_size(g) == brute_force_minimum_eds_size(g)


class TestTwoApprox:
    @settings(max_examples=30, deadline=None)
    @given(g=port_graphs(max_nodes=8))
    def test_greedy_within_factor_two(self, g):
        if g.num_edges == 0:
            return
        approx = two_approx_eds(g)
        assert is_edge_dominating_set(g, approx)
        assert len(approx) <= 2 * minimum_eds_size(g)


class TestBounds:
    def test_regular_ratio_values(self):
        assert regular_ratio(1) == 1
        assert regular_ratio(2) == 3
        assert regular_ratio(3) == Fraction(5, 2)
        assert regular_ratio(4) == Fraction(7, 2)
        assert regular_ratio(5) == 3
        assert regular_ratio(6) == Fraction(11, 3)
        assert regular_ratio(7) == Fraction(13, 4)

    def test_regular_ratio_monotone_within_parity(self):
        evens = [regular_ratio(d) for d in range(2, 20, 2)]
        odds = [regular_ratio(d) for d in range(1, 20, 2)]
        assert evens == sorted(evens)
        assert odds == sorted(odds)
        assert all(r < 4 for r in evens + odds)

    def test_bounded_degree_ratio_values(self):
        assert bounded_degree_ratio(1) == 1
        assert bounded_degree_ratio(2) == 3
        assert bounded_degree_ratio(3) == 3
        assert bounded_degree_ratio(4) == Fraction(7, 2)
        assert bounded_degree_ratio(5) == Fraction(7, 2)
        assert bounded_degree_ratio(6) == Fraction(11, 3)

    def test_bounded_matches_paper_formulas(self):
        # paper: 4 - 2/(Δ-1) for odd Δ >= 3, 4 - 2/Δ for even Δ
        for delta in range(3, 21, 2):
            assert bounded_degree_ratio(delta) == Fraction(4) - Fraction(
                2, delta - 1
            )
        for delta in range(2, 21, 2):
            assert bounded_degree_ratio(delta) == Fraction(4) - Fraction(
                2, delta
            )

    def test_bad_parameters_rejected(self):
        with pytest.raises(AlgorithmContractError):
            regular_ratio(0)
        with pytest.raises(AlgorithmContractError):
            bounded_degree_ratio(0)

    def test_matching_size(self):
        assert maximum_matching_size(from_networkx(nx.path_graph(4))) == 2
        assert maximum_matching_size(from_networkx(nx.cycle_graph(5))) == 2

    @settings(max_examples=25, deadline=None)
    @given(g=port_graphs(max_nodes=8))
    def test_lower_bound_is_sound(self, g):
        if g.num_edges > 12:
            return
        assert eds_lower_bound(g) <= minimum_eds_size(g)

    def test_lower_bound_empty(self):
        assert eds_lower_bound(from_networkx(nx.empty_graph(3))) == 0
