"""Tests for the analysis layer: ratio, costs, references, runner, report.

Ratios and runs go through the engine (:func:`repro.api.run_one`).
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.algorithms import RegularOddEDS
from repro.algorithms.bounded_degree import run_bounded_with_split
from repro.analysis import (
    compute_cost_certificate,
    format_fraction,
    format_ratio_pair,
    format_table,
    port_one_reference,
    regular_odd_reference,
)
from repro.exceptions import AlgorithmContractError
from repro.generators import random_regular
from repro.matching.exact import minimum_maximal_matching
from repro.portgraph import from_networkx, random_numbering
from repro.registry import ALGORITHMS, register_central
from repro.runtime import run_anonymous

from tests.conftest import nx_graphs


@contextmanager
def central(name, pick):
    """A throwaway central algorithm selecting ``pick(graph)``."""
    register_central(name, lambda graph: frozenset(pick(graph)))
    try:
        yield
    finally:
        ALGORITHMS.unregister(name)


class TestMeasureRatio:
    """Ratio measurement: a ``quality`` unit's optimum policy."""

    def test_exact_on_small_graph(self):
        with central("test_all_edges", lambda g: g.edges):
            record = api.run_one("test_all_edges", api.graph("path", n=5))
        assert record.optimum_exact
        assert record.optimum == 2
        assert record.ratio == Fraction(4, 2)

    def test_lower_bound_fallback(self):
        with central("test_all_edges", lambda g: g.edges):
            record = api.run_one(
                "test_all_edges", api.graph("regular", seed=1, d=3, n=20),
                exact_edge_limit=5,
            )
        assert not record.optimum_exact
        assert record.ratio >= 1

    def test_infeasible_rejected(self):
        with central("test_no_edges", lambda g: ()):
            with pytest.raises(AlgorithmContractError, match="infeasible"):
                api.run_one("test_no_edges", api.graph("path", n=5))


class TestReferences:
    def test_port_one_reference_matches_distributed(self):
        from repro.algorithms import PortOneEDS

        g = random_regular(4, 10, seed=3)
        assert port_one_reference(g) == run_anonymous(g, PortOneEDS).edge_set()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([6, 8, 10, 12]),
        d=st.sampled_from([3, 5]),
        seed=st.integers(0, 10**6),
        numbering_seed=st.integers(0, 10**6),
    )
    def test_regular_odd_reference_matches_distributed(
        self, n, d, seed, numbering_seed
    ):
        """The centralised reference and the message-passing run must
        produce identical edge sets on every odd-regular graph."""
        if n <= d:
            n = d + 3
        if (n * d) % 2:
            n += 1
        graph = from_networkx(
            nx.random_regular_graph(d, n, seed=seed),
            random_numbering(numbering_seed),
        )
        _, reference = regular_odd_reference(graph)
        distributed = run_anonymous(graph, RegularOddEDS).edge_set()
        assert reference == distributed

    def test_phase1_superset_of_final(self):
        g = random_regular(3, 12, seed=5)
        phase1, final = regular_odd_reference(g)
        assert final <= phase1

    def test_phase1_is_edge_cover_forest(self):
        """The Theorem 4 proof's phase I claims: D is an edge cover and
        the induced subgraph is a forest (no cycle is ever closed)."""
        from repro.eds import is_edge_dominating_set
        from repro.matching import is_edge_cover, is_forest

        for seed in range(5):
            g = random_regular(5, 12, seed=seed)
            phase1, _ = regular_odd_reference(g)
            assert is_edge_cover(g, phase1)
            assert is_forest(phase1)
            assert is_edge_dominating_set(g, phase1)

    @settings(max_examples=30, deadline=None)
    @given(graph=nx_graphs(max_nodes=10, max_degree=5),
           seed=st.integers(0, 10**6),
           delta=st.sampled_from([3, 4, 5]))
    def test_bounded_reference_matches_simulator_exactly(
        self, graph, seed, delta
    ):
        """The centralised re-enactment of A(Δ) — including every
        tie-break of the proposal protocols — must reproduce the
        simulator's M/P split edge for edge."""
        from repro.analysis import bounded_degree_reference

        max_deg = max((d for _, d in graph.degree()), default=0)
        if max_deg > delta:
            return
        g = from_networkx(graph, random_numbering(seed))
        ref_m, ref_p = bounded_degree_reference(g, delta)
        _, sim_m, sim_p = run_bounded_with_split(g, delta)
        assert ref_m == sim_m
        assert ref_p == sim_p

    def test_bounded_reference_rejects_delta_one(self):
        from repro.analysis import bounded_degree_reference
        from repro.exceptions import AlgorithmContractError

        g = random_regular(3, 8, seed=1)
        with pytest.raises(AlgorithmContractError):
            bounded_degree_reference(g, 1)


class TestCostCertificate:
    def test_requires_maximal_matching_reference(self):
        g = from_networkx(nx.path_graph(4))
        with pytest.raises(AlgorithmContractError):
            compute_cost_certificate(g, frozenset(g.edges), frozenset())

    def test_certificate_on_theorem5_run(self):
        g = random_regular(4, 12, seed=11)
        result, m_edges, p_edges = run_bounded_with_split(g, 4)
        reference = minimum_maximal_matching(g)
        cert = compute_cost_certificate(g, result.edge_set(), reference)
        assert cert.total_cost == len(result.edge_set())
        assert sum(cert.histogram) == 2 * len(reference)
        assert cert.histogram_inequality_holds
        assert cert.implied_ratio_bound == Fraction(
            len(result.edge_set()), len(reference)
        )

    @settings(max_examples=20, deadline=None)
    @given(graph=nx_graphs(max_nodes=10, max_degree=5),
           seed=st.integers(0, 10**6))
    def test_certificate_on_random_graphs(self, graph, seed):
        g = from_networkx(graph, random_numbering(seed))
        if g.num_edges == 0 or g.num_edges > 20:
            return
        result, _, _ = run_bounded_with_split(g, 5)
        reference = minimum_maximal_matching(g)
        if not reference:
            return
        # delta is the algorithm's odd parameter (A(5) here), which is
        # what the §7.7 weight bounds are stated in
        cert = compute_cost_certificate(
            g, result.edge_set(), reference, delta=5
        )
        assert cert.total_cost == len(result.edge_set())
        assert cert.histogram_inequality_holds


class TestRunner:
    """The one-unit runner, :func:`repro.api.run_one`."""

    def test_harness_algorithms_run_on_cycle(self):
        graph = api.graph("cycle", seed=1, n=8)
        # regular_odd is left out: a cycle has even degree.
        for name in ("port_one", "bounded_degree", "ids_greedy",
                     "central_greedy"):
            record = api.run_one(name, graph, label="C8")
            assert record.solution_size >= 1
            assert record.ratio >= 1

    def test_row_fields(self):
        record = api.run_one("port_one", api.graph("cycle", n=6))
        assert record.num_nodes == 6
        assert record.rounds == 1
        assert record.optimum_exact


class TestReport:
    def test_format_fraction(self):
        assert format_fraction(Fraction(7, 2)).startswith("7/2")
        assert format_fraction(Fraction(3)).startswith("3 (")

    def test_format_ratio_pair(self):
        tight = format_ratio_pair(Fraction(5, 2), Fraction(5, 2))
        assert "TIGHT" in tight
        below = format_ratio_pair(Fraction(5, 2), Fraction(2))
        assert "below" in below
        above = format_ratio_pair(Fraction(5, 2), Fraction(3))
        assert "ABOVE" in above

    def test_format_table_alignment(self):
        table = format_table(
            ["a", "bbbb"], [(1, 2), (333, 4)], title="t"
        )
        lines = table.splitlines()
        assert lines[0] == "t"
        widest = max(len(line) for line in lines)
        assert all(len(line) <= widest for line in lines)
        assert "333" in table
