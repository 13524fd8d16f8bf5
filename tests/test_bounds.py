"""The certified-bounds subsystem: sandwich soundness, certificates,
engine threading, and cache-key byte-stability.

The core soundness matrix runs every plain generator family at small
sizes and asserts the full chain ``primal <= exact ν <= dual`` with
every certificate re-proven by :func:`repro.bounds.verify_certificate`;
the adversarial half does the same on the paper's lower-bound
constructions, whose optimum is known by certificate.  The round-parallel
greedy is checked edge for edge against a sequential reference, the
array certificates against every corruption the verifier must catch,
and the engine against its once-per-cell witness and sandwich.  The
skip test (ν is computed only where it can raise the EDS lower bound)
is checked against the exact ν on every graph of up to six nodes.  The
byte-stability half pins the content addresses and record bytes of the
pre-bounds optimum modes against fixtures recorded *before* this
subsystem existed (``tests/data/v2_optimum_keys.json``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.lp_rounding import LPRoundingEDS
from repro.bounds import (
    DUAL_BOUND_EDGE_LIMIT,
    BoundResult,
    CoverCertificate,
    MatchingCertificate,
    SandwichCertificate,
    doubling_phases,
    dual_bound,
    exact_bound,
    fractional_vertex_cover,
    greedy_witness,
    maximum_matching_mask,
    nu_can_bind,
    nu_sandwich,
    primal_bound,
    primal_matching,
    solve_covering_lp,
    verify_certificate,
)
from repro.bounds.fractional import line_graph_covering_instance
from repro.bounds.primal import edge_priority, greedy_matching
from repro.eds.bounds import (
    eds_lower_bound,
    eds_lower_bound_from_nu,
    maximum_matching_size,
)
from repro.eds.exact import minimum_eds_size
from repro.eds.properties import is_edge_dominating_set
from repro.engine.cache import ResultCache, cache_key
from repro.engine.executor import execute_unit, run_units
from repro.engine.records import ResultRecord, ResultStore
from repro.engine.spec import GraphSpec, JobSpec, canonical_json, derive_seed
from repro.exceptions import CertificateError
from repro.lowerbounds.even import build_even_lower_bound
from repro.lowerbounds.odd import build_odd_lower_bound
from repro.obs.spans import recording
from repro.portgraph import PortGraphBuilder, PortNumberedGraph
from repro.runtime.outputs import EdgeSelection
from repro.testing import port_graphs

from test_family_matrix import BOUNDED_FAMILIES, REGULAR_FAMILIES

ALL_FAMILIES = REGULAR_FAMILIES + BOUNDED_FAMILIES

FIXTURE = Path(__file__).parent / "data" / "v2_optimum_keys.json"


# ---------------------------------------------------------------------------
# Sandwich soundness on the full family matrix
# ---------------------------------------------------------------------------


class TestSandwichSoundnessMatrix:
    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_primal_nu_dual_chain(self, name, make, d, seed):
        g = make()
        nu = maximum_matching_size(g)
        primal = primal_bound(g, seed=seed)
        dual = dual_bound(g, seed=seed)
        sandwich = nu_sandwich(g, seed=seed)
        assert primal.lower <= nu <= dual.upper, name
        assert sandwich.lower <= nu <= sandwich.upper, name
        assert verify_certificate(g, primal)
        assert verify_certificate(g, dual)
        assert verify_certificate(g, sandwich)

    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    def test_interval_contains_exact_eds_optimum(self, name, make, d):
        g = make()
        optimum = minimum_eds_size(g)
        sandwich = nu_sandwich(g, seed=0)
        lower = eds_lower_bound_from_nu(
            sandwich.lower, g.num_edges, g.max_degree
        )
        assert lower <= optimum <= sandwich.lower, name
        # The sandwich's EDS lower bound can never beat the one derived
        # from the exact ν (monotonicity).
        assert lower <= eds_lower_bound(g), name

    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    def test_primal_matching_is_maximal_matching(self, name, make, d):
        g = make()
        matching = EdgeSelection(g, primal_matching(g, seed=0))
        assert is_edge_dominating_set(g, matching), name
        matched = {v for e in matching for v in (e.u, e.v)}
        assert len(matched) == 2 * len(matching), name

    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    def test_exact_engine_matches_blossom(self, name, make, d):
        g = make()
        result = exact_bound(g)
        assert result.exact
        assert result.lower == result.upper == maximum_matching_size(g)
        assert verify_certificate(g, result)
        mask = maximum_matching_mask(g)
        assert np.count_nonzero(mask) == 2 * result.lower
        assert np.array_equal(mask, mask[g.compiled().vector().mate])


def sequential_greedy(vg, priority):
    """Reference: scan the edges in priority order, keep an edge whose
    endpoints are both still free."""
    selected = np.zeros(vg.num_ports, dtype=bool)
    taken: set[int] = set()
    lead = np.flatnonzero(vg.mate > vg.all_ports).tolist()
    for g in sorted(lead, key=lambda g: priority[g]):
        u, v = int(vg.port_node[g]), int(vg.peer_node[g])
        if u not in taken and v not in taken:
            taken.update((u, v))
            selected[g] = selected[vg.mate[g]] = True
    return selected


class TestGreedyEquivalence:
    """The round-parallel greedy is the sequential greedy, edge for edge."""

    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rounds_equal_sequential_on_the_matrix(self, name, make, d,
                                                   seed):
        vg = make().compiled().vector()
        priority = edge_priority(vg, seed)
        assert np.array_equal(
            greedy_matching(vg, priority), sequential_greedy(vg, priority)
        ), name

    @settings(max_examples=60, deadline=None)
    @given(g=port_graphs(max_nodes=12), data=st.data())
    def test_rounds_equal_sequential_on_random_graphs(self, g, data):
        vg = g.compiled().vector()
        lead = np.flatnonzero(vg.mate > vg.all_ports)
        order = data.draw(st.permutations(range(lead.size)))
        priority = np.empty(vg.num_ports, dtype=np.int64)
        priority[lead] = order
        priority[vg.mate[lead]] = order
        assert np.array_equal(
            greedy_matching(vg, priority), sequential_greedy(vg, priority)
        )


class TestAdversarialInstances:
    """The paper's lower-bound constructions: optimum known exactly."""

    @pytest.mark.parametrize(
        "build,d",
        [(build_even_lower_bound, 2), (build_even_lower_bound, 4),
         (build_odd_lower_bound, 3), (build_odd_lower_bound, 5)],
    )
    def test_sandwich_brackets_certified_optimum(self, build, d):
        instance = build(d)
        g = instance.graph
        nu = maximum_matching_size(g)
        sandwich = nu_sandwich(g, seed=0)
        assert sandwich.lower <= nu <= sandwich.upper
        assert verify_certificate(g, sandwich)
        lower = eds_lower_bound_from_nu(
            sandwich.lower, g.num_edges, g.max_degree
        )
        assert lower <= instance.optimum_size <= sandwich.lower


class TestDeterminism:
    def test_same_seed_same_certificate(self):
        make = REGULAR_FAMILIES[4][1]  # circulant-8
        # Two graph objects, so the second call cannot be a memo hit.
        a, b = nu_sandwich(make(), seed=7), nu_sandwich(make(), seed=7)
        assert a is not b
        assert a == b

    def test_seed_changes_are_sound_not_byte_stable(self):
        g = BOUNDED_FAMILIES[1][1]()  # grid-3x4
        nu = maximum_matching_size(g)
        brackets = {
            (s.lower, s.upper)
            for s in (nu_sandwich(g, seed=seed) for seed in range(6))
        }
        for lower, upper in brackets:
            assert lower <= nu <= upper


# ---------------------------------------------------------------------------
# Certificate verification rejects corruption
# ---------------------------------------------------------------------------


class TestVerifyRejectsCorruption:
    def _sandwich(self):
        g = REGULAR_FAMILIES[7][1]()  # petersen
        return g, nu_sandwich(g, seed=0)

    @staticmethod
    def _mask(g, *ports):
        """The mask selecting *ports* and nothing else."""
        mask = np.zeros(g.compiled().num_ports, dtype=bool)
        mask[list(ports)] = True
        return mask

    def test_cover_value_lowered(self):
        g, s = self._sandwich()
        cert = s.certificate
        numerators = cert.cover.numerators.copy()
        victim = int(np.flatnonzero(numerators)[0])
        numerators[victim] -= 1
        broken = BoundResult(
            lower=s.lower, upper=s.upper,
            certificate=SandwichCertificate(
                matching=cert.matching,
                cover=CoverCertificate(numerators, cert.cover.denominator),
            ),
            exact=s.exact,
        )
        with pytest.raises(CertificateError, match="infeasible"):
            verify_certificate(g, broken)

    def test_cover_value_negative(self):
        g, _ = self._sandwich()
        numerators = np.ones(g.num_nodes, dtype=np.int64)
        numerators[0] = -1
        cover = CoverCertificate(numerators, 1)
        result = BoundResult(0, cover.bound, cover, exact=False)
        with pytest.raises(CertificateError, match="negative"):
            verify_certificate(g, result)

    def test_cover_value_float_rejected(self):
        g, _ = self._sandwich()
        cover = CoverCertificate(np.full(g.num_nodes, 0.5), 1)
        result = BoundResult(0, g.num_nodes // 2, cover, exact=False)
        with pytest.raises(CertificateError, match="not exact"):
            verify_certificate(g, result)

    def test_cover_denominator_float_rejected(self):
        g, _ = self._sandwich()
        cover = CoverCertificate(np.ones(g.num_nodes, dtype=np.int64), 1.0)
        result = BoundResult(0, g.num_nodes, cover, exact=False)
        with pytest.raises(CertificateError, match="not exact"):
            verify_certificate(g, result)

    def test_cover_wrong_length_rejected(self):
        g, _ = self._sandwich()
        cover = CoverCertificate(np.ones(g.num_nodes - 1, dtype=np.int64), 1)
        result = BoundResult(0, g.num_nodes, cover, exact=False)
        with pytest.raises(CertificateError, match="one numerator per node"):
            verify_certificate(g, result)

    def test_matching_overlap_rejected(self):
        g, _ = self._sandwich()
        mate = g.compiled().mate
        # Ports 0 and 1 are two edges at the same node.
        cert = MatchingCertificate(
            self._mask(g, 0, mate[0], 1, mate[1]), maximal=False
        )
        result = BoundResult(2, 2 * g.num_edges, cert, exact=False)
        with pytest.raises(CertificateError, match="not a matching"):
            verify_certificate(g, result)

    def test_false_maximality_rejected(self):
        g, _ = self._sandwich()
        mate = g.compiled().mate
        cert = MatchingCertificate(self._mask(g, 0, mate[0]), maximal=True)
        result = BoundResult(1, 2, cert, exact=False)
        with pytest.raises(CertificateError, match="maximality"):
            verify_certificate(g, result)

    def test_mask_not_closed_under_mate_rejected(self):
        g, _ = self._sandwich()
        cert = MatchingCertificate(self._mask(g, 0), maximal=False)
        result = BoundResult(0, 2 * g.num_edges, cert, exact=False)
        with pytest.raises(CertificateError, match="not closed under mate"):
            verify_certificate(g, result)

    @pytest.mark.parametrize("loop", ["directed", "undirected"])
    def test_loop_port_rejected(self, loop):
        b = PortGraphBuilder()
        b.add_node("s", 2)
        b.add_node("t", 3)
        b.connect("s", 1, "t", 1)
        b.connect_fixed_point("s", 2)
        b.connect("t", 2, "t", 3)
        g = b.build()
        cg = g.compiled()
        ports = (
            [cg.gport(cg.node_index["s"], 2)] if loop == "directed"
            else [cg.gport(cg.node_index["t"], 2),
                  cg.gport(cg.node_index["t"], 3)]
        )
        cert = MatchingCertificate(self._mask(g, *ports), maximal=False)
        result = BoundResult(0, 2 * g.num_edges, cert, exact=False)
        with pytest.raises(CertificateError, match="loop"):
            verify_certificate(g, result)

    @pytest.mark.parametrize("mask", ["short", "int8", "list"])
    def test_mask_wrong_length_or_dtype_rejected(self, mask):
        g, s = self._sandwich()
        good = s.certificate.matching.selected
        bad = {
            "short": good[:-1],
            "int8": good.astype(np.int8),
            "list": good.tolist(),
        }[mask]
        cert = MatchingCertificate(bad, maximal=True)
        result = BoundResult(s.lower, s.upper, cert, exact=False)
        with pytest.raises(CertificateError, match="bool mask"):
            verify_certificate(g, result)

    def test_overflow_guard_falls_back_to_python_ints(self):
        """Numerators near 2^62: the pairwise sums leave int64, so the
        int64 path would wrap; the guard re-checks over Python ints."""
        g, _ = self._sandwich()
        big = 1 << 62
        feasible = CoverCertificate(np.full(g.num_nodes, big), big)
        assert feasible.bound == g.num_nodes
        assert verify_certificate(
            g, BoundResult(0, feasible.bound, feasible, exact=False)
        )
        numerators = np.full(g.num_nodes, big)
        cg = g.compiled()
        numerators[cg.port_node[0]] = 0
        numerators[cg.port_node[cg.mate[0]]] = big - 1
        infeasible = CoverCertificate(numerators, big)
        with pytest.raises(CertificateError, match="infeasible"):
            verify_certificate(
                g, BoundResult(0, infeasible.bound, infeasible, exact=False)
            )

    def test_overclaimed_lower_bound_rejected(self):
        g, s = self._sandwich()
        inflated = BoundResult(
            lower=s.lower + 1, upper=max(s.upper, s.lower + 1),
            certificate=s.certificate, exact=False,
        )
        with pytest.raises(CertificateError, match="exceeds"):
            verify_certificate(g, inflated)

    def test_underclaimed_upper_bound_rejected(self):
        g, s = self._sandwich()
        deflated = BoundResult(
            lower=0, upper=s.upper - 1,
            certificate=s.certificate, exact=False,
        )
        with pytest.raises(CertificateError, match="below every"):
            verify_certificate(g, deflated)

    def test_missing_certificate_rejected(self):
        g, s = self._sandwich()
        with pytest.raises(CertificateError, match="no certificate"):
            verify_certificate(
                g, BoundResult(s.lower, s.upper, None, False)
            )

    def test_memoised_certificate_is_read_only(self):
        g, s = self._sandwich()
        assert nu_sandwich(g, seed=0) is s
        for array in (s.certificate.matching.selected,
                      s.certificate.cover.numerators):
            with pytest.raises(ValueError):
                array[0] = array[0]


# ---------------------------------------------------------------------------
# The shared fractional solver: central == distributed
# ---------------------------------------------------------------------------


def _distributed_fractional_values(graph, delta):
    """Drive the lp_rounding node programs through their fractional
    phases by hand and read off the per-edge variables."""
    programs = {
        v: LPRoundingEDS(graph.degree(v), random.Random(0), delta)
        for v in graph.nodes
    }
    for rnd in range(2 * doubling_phases(delta)):
        outbox = {v: programs[v].send(rnd) for v in graph.nodes}
        for v in graph.nodes:
            inbox = {}
            for i in graph.ports(v):
                u, j = graph.connection(v, i)
                inbox[i] = outbox[u][j]
            programs[v].receive(rnd, inbox)
    return programs


class TestSharedFractionalSolver:
    @pytest.mark.parametrize(
        "family_index,delta",
        [(7, 3), (4, 4)],  # petersen Δ=3, circulant-8 Δ=4
    )
    def test_central_equals_distributed(self, family_index, delta):
        g = REGULAR_FAMILIES[family_index][1]()
        edges, constraints = line_graph_covering_instance(g)
        central = solve_covering_lp(
            len(edges), constraints,
            start=Fraction(1, 2 * delta),
            phases=doubling_phases(delta),
        )
        programs = _distributed_fractional_values(g, delta)
        for index, e in enumerate(edges):
            x_u = programs[e.u].x[e.i]
            x_v = programs[e.v].x[e.j]
            assert x_u == x_v, "endpoints disagree"
            assert x_u == Fraction(int(central[index]), 2 * delta), (
                "central and distributed solves diverge"
            )

    def test_solution_is_feasible(self):
        g = BOUNDED_FAMILIES[1][1]()  # grid-3x4
        edges, constraints = line_graph_covering_instance(g)
        delta = g.max_degree
        values = solve_covering_lp(
            len(edges), constraints,
            start=Fraction(1, 2 * delta),
            phases=doubling_phases(delta),
        )
        for constraint in constraints:
            assert sum(values[i] for i in constraint) >= 2 * delta

    def test_vertex_cover_certificate_feasible_everywhere(self):
        for name, make, _ in ALL_FAMILIES:
            g = make()
            cover = fractional_vertex_cover(g, primal_matching(g, seed=0))
            y, index = cover.numerators, g.compiled().node_index
            for e in g.edges:
                assert (
                    y[index[e.u]] + y[index[e.v]] >= cover.denominator
                ), name


# ---------------------------------------------------------------------------
# Blossom memoisation (per compiled graph)
# ---------------------------------------------------------------------------


class TestBlossomMemo:
    def test_blossom_runs_once_per_graph(self, monkeypatch):
        import networkx
        calls = []
        real = networkx.max_weight_matching

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # repro.eds.bounds imports networkx where it runs blossom.
        monkeypatch.setattr(networkx, "max_weight_matching", counting)
        g = REGULAR_FAMILIES[6][1]()  # torus-3x3
        first = maximum_matching_size(g)
        assert maximum_matching_size(g) == first
        assert eds_lower_bound(g) >= 1
        exact_bound(g)
        assert len(calls) == 1

    def test_fresh_graph_recomputes(self):
        make = REGULAR_FAMILIES[0][1]
        assert maximum_matching_size(make()) == maximum_matching_size(
            make()
        )


# ---------------------------------------------------------------------------
# Engine threading: dual_bound / auto escalation / records
# ---------------------------------------------------------------------------


def _unit(n=16, d=3, seed=0, **kwargs):
    return JobSpec(
        algorithm="port_one",
        graph=GraphSpec.make("regular", seed=seed, d=d, n=n),
        **kwargs,
    )


#: A small irregular graph on which ν can raise the EDS lower bound
#: (ν = 7: ⌈7/2⌉ = 4 > ⌈15/5⌉ = 3), so its dual_bound units run the ν
#: sandwich; its exact optimum is cheap.
NU_BINDS = GraphSpec.make("bounded", seed=1, max_degree=3, n=16)


def _binding_unit(algorithm="port_one", **kwargs):
    return JobSpec(algorithm=algorithm, graph=NU_BINDS, **kwargs)


def test_nu_binds_on_the_bounded_fixture():
    assert nu_can_bind(NU_BINDS.build())


class TestEngineThreading:
    def test_dual_bound_record_brackets_exact_optimum(self):
        spec = _binding_unit(optimum="dual_bound")
        record = execute_unit(spec)
        optimum = minimum_eds_size(spec.graph.build())
        assert record.has_interval
        assert record.optimum_lower <= optimum <= record.optimum_upper
        assert record.ratio_lo >= 1
        assert record.ratio_lo <= record.ratio_hi
        assert record.ratio == record.ratio_hi
        assert record.optimum == record.optimum_lower
        assert not record.optimum_exact
        assert record.extra["nu_lower"] <= record.extra["nu_upper"]

    def test_regular_record_brackets_exact_optimum_without_nu(self):
        spec = _unit(optimum="dual_bound")
        record = execute_unit(spec)
        optimum = minimum_eds_size(spec.graph.build())
        assert record.has_interval
        assert record.optimum_lower <= optimum <= record.optimum_upper
        assert record.ratio_lo >= 1
        assert record.ratio_lo <= record.ratio_hi
        assert record.ratio == record.ratio_hi
        assert record.optimum == record.optimum_lower
        assert not record.optimum_exact
        assert "nu_lower" not in record.extra
        assert "nu_upper" not in record.extra

    def test_dual_bound_record_roundtrips(self):
        record = execute_unit(_unit(optimum="dual_bound"))
        data = json.loads(record.canonical())
        assert data["optimum_lower"] == record.optimum_lower
        assert ResultRecord.from_json_dict(data) == record

    def test_exact_and_none_records_carry_no_interval_keys(self):
        for mode in ("exact", "none"):
            record = execute_unit(_unit(optimum=mode))
            data = record.to_json_dict()
            assert not record.has_interval
            for field in ("optimum_lower", "optimum_upper",
                          "ratio_lo_num", "ratio_hi_num"):
                assert field not in data, mode

    def test_auto_escalates_to_sandwich_past_the_limit(self, monkeypatch):
        import repro.engine.measures as measures

        assert DUAL_BOUND_EDGE_LIMIT > 48
        monkeypatch.setattr(measures, "DUAL_BOUND_EDGE_LIMIT", 50)
        # m = 96 > 50: auto must now resolve to the sandwich.
        record = execute_unit(_unit(n=64, optimum="auto"))
        assert record.has_interval

    def test_auto_below_limit_keeps_blossom(self):
        # 48 < m = 96 <= DUAL_BOUND_EDGE_LIMIT: the historical path.
        record = execute_unit(_unit(n=64, optimum="auto"))
        assert not record.has_interval
        assert record.has_optimum and not record.optimum_exact

    def test_dual_bound_units_are_deterministic(self):
        spec = _unit(optimum="dual_bound")
        assert execute_unit(spec).canonical() == execute_unit(
            spec
        ).canonical()

    def test_telemetry_spans_and_counters(self):
        with recording() as rec:
            execute_unit(_binding_unit(optimum="dual_bound"))
        names = [s.name for s in rec.spans]
        assert "optimum" in names
        assert "optimum_verify" in names
        optimum_span = next(s for s in rec.spans if s.name == "optimum")
        assert optimum_span.attrs["mode"] == "dual_bound"
        assert optimum_span.attrs["resolved"] == "sandwich"
        assert "gap" in optimum_span.attrs
        assert rec.counters["optimum.sandwich"] == 1
        assert "optimum.gap_total" in rec.counters
        assert rec.counters["optimum.bracket"] == 1
        assert rec.counters["optimum.witness"] == 1

    def test_telemetry_without_the_sandwich(self):
        with recording() as rec:
            execute_unit(_unit(optimum="dual_bound"))
        names = [s.name for s in rec.spans]
        assert "optimum:witness" in names
        assert "optimum_verify" in names
        assert "optimum:primal" not in names
        assert "optimum:dual" not in names
        optimum_span = next(s for s in rec.spans if s.name == "optimum")
        assert optimum_span.attrs["resolved"] == "greedy"
        assert "gap" not in optimum_span.attrs
        assert rec.counters["optimum.bracket"] == 1
        assert rec.counters["optimum.witness"] == 1
        assert "optimum.sandwich" not in rec.counters

    def test_sandwich_runs_once_per_cell(self, monkeypatch):
        """Three algorithms on one GraphSpec where ν binds: one
        sandwich, one bracket."""
        import repro.bounds as bounds

        calls = []
        real = bounds.primal_matching

        def counting(graph, *, seed=0):
            calls.append(seed)
            return real(graph, seed=seed)

        monkeypatch.setattr(bounds, "primal_matching", counting)
        units = [
            _binding_unit(name, optimum="dual_bound")
            for name in ("port_one", "bounded_degree", "ids_greedy")
        ]
        records = run_units(units, backend="inline").records
        assert len(calls) == 1
        brackets = {
            (r.extra["nu_lower"], r.extra["nu_upper"], r.optimum_lower)
            for r in records
        }
        assert len(brackets) == 1
        for r in records:
            assert type(r.extra["nu_lower"]) is int
            assert type(r.extra["nu_upper"]) is int

    def test_witness_runs_once_per_cell(self, monkeypatch):
        """Three algorithms on one regular GraphSpec: one greedy, one
        bracket, no sandwich."""
        import repro.bounds.primal as primal

        calls = []
        real = primal.greedy_matching

        def counting(vg, priority):
            calls.append(vg.num_nodes)
            return real(vg, priority)

        def refuse(graph, *, seed=0):
            raise AssertionError("ν sandwich on a regular graph")

        monkeypatch.setattr(primal, "greedy_matching", counting)
        monkeypatch.setattr("repro.engine.measures.nu_sandwich", refuse)
        graph = GraphSpec.make("regular", seed=3, d=3, n=32)
        units = [
            JobSpec(algorithm=name, graph=graph, optimum="dual_bound")
            for name in ("port_one", "bounded_degree", "regular_odd")
        ]
        records = run_units(units, backend="inline").records
        assert len(calls) == 1
        assert len({r.optimum_lower for r in records}) == 1
        witness = greedy_witness(graph.build(), seed=derive_seed(
            "bounds", graph.to_json_dict()
        ))
        for r in records:
            assert r.optimum_upper == min(witness.lower, r.solution_size)
            assert "nu_lower" not in r.extra

    def test_dual_bound_on_array_graph_builds_no_port_edges(
        self, monkeypatch
    ):
        def refuse(self):
            raise AssertionError("PortEdge tuple materialised")

        monkeypatch.setattr(
            PortNumberedGraph, "_iter_array_edges", refuse
        )
        for graph in (
            GraphSpec.make("pairing_regular", seed=1, d=4, n=512), NU_BINDS
        ):
            record = execute_unit(JobSpec(
                algorithm="bounded_degree", graph=graph,
                optimum="dual_bound",
            ))
            assert record.has_interval
            if graph is NU_BINDS:
                nu_lower = record.extra["nu_lower"]
                assert nu_lower <= record.extra["nu_upper"]


# ---------------------------------------------------------------------------
# Compute ν only where it can bind
# ---------------------------------------------------------------------------


class TestBracketRoutes:
    @pytest.mark.parametrize("graph", [
        GraphSpec.make("regular", seed=2, d=3, n=64),
        GraphSpec.make("regular", seed=0, d=4, n=40),
        GraphSpec.make("pairing_regular", seed=1, d=4, n=512),
        GraphSpec.make("pairing_regular", seed=2, d=3, n=256),
    ], ids=lambda g: g.label())
    def test_regular_units_never_compute_nu(self, monkeypatch, graph):
        import repro.bounds as bounds
        import repro.bounds.primal as primal

        def refuse(*args, **kwargs):
            raise AssertionError("ν computed on a regular graph")

        monkeypatch.setattr(primal, "_augment", refuse)
        monkeypatch.setattr(bounds, "fractional_vertex_cover", refuse)
        records = run_units([
            JobSpec(algorithm=name, graph=graph, optimum="dual_bound")
            for name in ("port_one", "bounded_degree")
        ], backend="inline").records
        monkeypatch.undo()

        g = graph.build()
        nu = nu_sandwich(g, seed=derive_seed("bounds", graph.to_json_dict()))
        for r in records:
            assert r.optimum_lower == eds_lower_bound_from_nu(
                nu.lower, g.num_edges, g.max_degree
            )
            # nu.lower is the augmented |M|, which is never smaller.
            assert r.optimum_upper <= nu.lower
            assert "nu_lower" not in r.extra

    def test_skip_is_sound_on_every_graph_up_to_six_nodes(self):
        """Every graph of the networkx atlas with 1–6 nodes and an edge:
        wherever the sandwich is skipped, ⌈ν/2⌉ <= ⌈m/(2Δ−1)⌉ for the
        exact ν, and every regular one is skipped."""
        import networkx as nx

        from repro.portgraph.convert import from_networkx

        skipped = 0
        for atlas in nx.graph_atlas_g():
            if atlas.number_of_nodes() > 6 or not atlas.number_of_edges():
                continue
            g = from_networkx(atlas)
            if g.regularity() is not None:
                assert not nu_can_bind(g), sorted(atlas.edges)
            if nu_can_bind(g):
                continue
            skipped += 1
            nu = maximum_matching_size(g)
            m, delta = g.num_edges, g.max_degree
            assert -(-nu // 2) <= -(-m // (2 * delta - 1)), sorted(
                atlas.edges
            )
        assert skipped > 0

    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    def test_skip_is_sound_on_the_family_matrix(self, name, make, d):
        g = make()
        if g.regularity() is not None:
            assert not nu_can_bind(g), name
        if not nu_can_bind(g):
            nu = maximum_matching_size(g)
            m, delta = g.num_edges, g.max_degree
            assert eds_lower_bound_from_nu(
                nu, m, delta
            ) == eds_lower_bound_from_nu(0, m, delta), name

    def test_non_maximal_witness_fails_before_any_record(
        self, monkeypatch, tmp_path
    ):
        import repro.engine.measures as measures

        def truncated(graph, *, seed=0):
            # The real witness minus one matched edge: still a matching,
            # no longer maximal.
            real = greedy_witness(graph, seed=seed)
            selected = real.certificate.selected.copy()
            mate = graph.compiled().vector().mate
            g = int(np.flatnonzero(selected)[0])
            selected[g] = selected[mate[g]] = False
            size = real.lower - 1
            return BoundResult(
                lower=size, upper=2 * size,
                certificate=MatchingCertificate(selected, maximal=True),
                exact=False,
            )

        monkeypatch.setattr(measures, "greedy_witness", truncated)
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(CertificateError, match="maximality"):
            run_units([_unit(optimum="dual_bound")], cache=cache)
        assert len(cache) == 0

    def test_witness_is_memoised_read_only(self):
        g = GraphSpec.make("regular", seed=0, d=3, n=16).build()
        witness = greedy_witness(g, seed=5)
        assert greedy_witness(g, seed=5) is witness
        selected = witness.certificate.selected
        with pytest.raises(ValueError):
            selected[0] = selected[0]
        assert verify_certificate(g, witness)
        # The sandwich augments this same greedy: never smaller.
        assert nu_sandwich(g, seed=5).lower >= witness.lower

    def test_augment_leaves_no_reference_cycle(self):
        g = GraphSpec.make("pairing_regular", seed=1, d=4, n=4096).build()
        primal_matching(g, seed=0)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            primal_matching(g, seed=0)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestSummaryAndCompareIntervals:
    def _interval_record(self, key="k1"):
        return ResultRecord(
            key=key, algorithm="port_one", graph_family="regular",
            graph_label="regular d=3 n=4096", num_nodes=4096,
            num_edges=6144, max_degree=3, solution_size=3000,
            optimum=1229, optimum_exact=False, ratio_num=3000,
            ratio_den=1229, rounds=1, optimum_lower=1229,
            optimum_upper=2040, ratio_lo_num=25, ratio_lo_den=17,
            ratio_hi_num=3000, ratio_hi_den=1229,
        )

    def _point_record(self, key="k2"):
        return ResultRecord(
            key=key, algorithm="port_one", graph_family="regular",
            graph_label="regular d=3 n=16", num_nodes=16, num_edges=24,
            max_degree=3, solution_size=12, optimum=6,
            optimum_exact=True, ratio_num=2, ratio_den=1, rounds=1,
        )

    def test_summary_gains_interval_column_only_when_present(self):
        plain = ResultStore([self._point_record()])
        assert "mean ratio ∈" not in plain.format_summary()
        mixed = ResultStore([self._point_record(), self._interval_record()])
        out = mixed.format_summary()
        assert "mean ratio ∈" in out
        assert "[" in out

    def test_comparison_rows_aggregate_intervals(self):
        from repro.experiments.compare import (
            comparison_rows,
            format_comparison,
        )

        rows = comparison_rows([self._interval_record()])
        (row,) = rows
        assert row.mean_ratio_lo < row.mean_ratio_hi
        assert row.mean_ratio_hi == pytest.approx(3000 / 1229)
        out = format_comparison(rows)
        assert "mean ratio ∈" in out
        plain = format_comparison(comparison_rows([self._point_record()]))
        assert "mean ratio ∈" not in plain


# ---------------------------------------------------------------------------
# Cache-key and record byte-stability against pre-bounds fixtures
# ---------------------------------------------------------------------------


class TestByteStability:
    def _entries(self):
        return json.loads(FIXTURE.read_text())

    def test_pre_bounds_cache_keys_unchanged(self):
        checked = 0
        for entry in self._entries():
            spec = JobSpec.from_json_dict(entry["spec"])
            assert cache_key(spec) == entry["key"], spec
            checked += 1
        assert checked >= 8

    def test_pre_bounds_record_bytes_unchanged(self):
        checked = 0
        for entry in self._entries():
            if "record" not in entry:
                continue
            spec = JobSpec.from_json_dict(entry["spec"])
            assert execute_unit(spec).to_json_dict() == entry["record"]
            checked += 1
        assert checked >= 4

    def test_dual_bound_units_address_under_the_new_schema(self):
        spec = _unit(optimum="dual_bound")
        legacy_payload = {"schema": 2, "unit": spec.to_json_dict()}
        legacy_key = hashlib.sha256(
            canonical_json(legacy_payload).encode()
        ).hexdigest()
        assert cache_key(spec) != legacy_key
        previous_payload = {"schema": 3, "unit": spec.to_json_dict()}
        assert cache_key(spec) != hashlib.sha256(
            canonical_json(previous_payload).encode()
        ).hexdigest()
        v4_payload = {"schema": 4, "unit": spec.to_json_dict()}
        assert cache_key(spec) != hashlib.sha256(
            canonical_json(v4_payload).encode()
        ).hexdigest()
        current_payload = {"schema": 5, "unit": spec.to_json_dict()}
        assert cache_key(spec) == hashlib.sha256(
            canonical_json(current_payload).encode()
        ).hexdigest()
