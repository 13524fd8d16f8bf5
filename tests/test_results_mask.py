"""The selected-port mask: every engine's result, checked at every read.

Every engine returns its output as one boolean mask over global ports
(``RunResult.selected``); the per-node ``outputs`` mapping, the edge set
and the feasibility verdict derive from it.  This module holds

* a differential check of the mask path against the frozenset reference
  (``decode_edge_set`` over the node programs' own outputs, and
  ``undominated_edges``) over engine × paper algorithm × small family;
* failure injection showing the §2.2 consistency check and the
  feasibility check run on every unit, on the mask path too;
* a guard that a ``quality`` unit on the vector engine builds no
  :class:`PortEdge` at all;
* the ``simulate:setup`` / ``simulate:rounds`` / ``simulate:egress``
  telemetry split.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.port_one import PortOneEDS
from repro.algorithms.vector import VectorPortOne
from repro.eds.properties import is_edge_dominating_set, undominated_edges
from repro.engine.executor import execute_unit
from repro.engine.spec import GraphSpec, JobSpec
from repro.exceptions import AlgorithmContractError, InconsistentOutputError
from repro.obs import recording
from repro.portgraph import from_networkx
from repro.portgraph.ports import PortEdge
from repro.registry.algorithms import resolve
from repro.registry.families import get_family
from repro.runtime import (
    DEFAULT_MAX_ROUNDS,
    ENGINES,
    NodeProgram,
    decode_edge_set,
    run_anonymous,
    use_engine,
)
from repro.runtime.outputs import EdgeSelection

from tests.reference_loop import RUNNABLE, execute_reference, run_under

PAPER_ALGORITHMS = ("port_one", "regular_odd", "bounded_degree")
SMALL_GRAPHS = (
    ("regular", {"d": 3, "n": 10}),
    ("regular", {"d": 4, "n": 12}),
    ("pairing_regular", {"d": 3, "n": 8}),
    ("cycle", {"n": 7}),
    ("complete", {"n": 5}),
    ("bounded", {"n": 12, "max_degree": 4}),
    ("tree", {"n": 9}),
    ("star", {"leaves": 4}),
    ("matching_union", {"pairs": 3}),
)


def reference(graph, factory):
    """The node programs' own outputs and the edges they select, decoded
    without the mask: the frozenset reference."""
    programs = {}
    for v in graph.nodes:
        prog = factory(graph.degree(v))
        if graph.degree(v) == 0 and not prog.halted:
            prog.halt(frozenset())
        programs[v] = prog
    execute_reference(graph, programs, DEFAULT_MAX_ROUNDS, False)
    outputs = {v: prog.output for v, prog in programs.items()}
    edges = frozenset(
        graph.edge_at(v, i) for v in graph.nodes for i in outputs[v]
    )
    return outputs, edges


@pytest.mark.parametrize("family,params", SMALL_GRAPHS)
@pytest.mark.parametrize("name", PAPER_ALGORITHMS)
def test_mask_path_matches_frozenset_reference(family, params, name):
    graph = get_family(family).make(params, 5)
    factory = resolve(name).factory(graph)
    outputs, edges = reference(graph, factory)
    assert decode_edge_set(graph, outputs) == edges
    cg = graph.compiled()
    expected = np.zeros(cg.num_ports, dtype=bool)
    for k, v in enumerate(cg.nodes):
        for i in outputs[v]:
            expected[cg.gport(k, i)] = True
    feasible = not undominated_edges(graph, edges)

    for engine in ENGINES:
        context = f"{name} on {family} ({engine})"
        with use_engine(engine):
            result = run_anonymous(graph, factory)
        assert result.selected.dtype == np.bool_, context
        assert np.array_equal(result.selected, expected), context
        assert result.outputs == outputs, context
        selection = result.edge_set()
        assert isinstance(selection, EdgeSelection), context
        assert len(selection) == len(edges), context
        assert is_edge_dominating_set(graph, selection) == feasible, context
        assert selection == edges and edges == selection, context
        assert hash(selection) == hash(edges), context
        assert frozenset(selection) == edges, context


class TestEdgeSelectionContract:
    def graph_and_selection(self):
        graph = from_networkx(nx.petersen_graph())
        with use_engine("vector"):
            result = run_anonymous(graph, resolve("port_one").factory(graph))
        return graph, result.edge_set()

    def test_set_operators_run_on_decoded_edges(self):
        graph, selection = self.graph_and_selection()
        edges = selection.edges()
        everything = frozenset(graph.edges)
        assert selection <= everything and everything >= selection
        assert selection | frozenset() == edges
        assert everything - selection == everything - edges
        assert isinstance(selection & everything, frozenset)
        assert next(iter(selection)) in selection
        assert {selection: 1}[edges] == 1

    def test_selections_compare_by_edges(self):
        graph, selection = self.graph_and_selection()
        with use_engine("compiled"):
            again = run_anonymous(
                graph, resolve("port_one").factory(graph)
            ).edge_set()
        assert again == selection and selection == again
        assert again != frozenset()

    def test_size_never_decodes(self):
        _, selection = self.graph_and_selection()
        assert len(selection) > 0
        assert selection._edges is None

    def test_foreign_graph_takes_the_edge_path(self):
        graph, selection = self.graph_and_selection()
        twin = from_networkx(nx.petersen_graph())
        assert twin == graph and twin is not graph
        assert is_edge_dominating_set(twin, selection)


# -- failure injection -------------------------------------------------------


def pairing_unit(algorithm="port_one"):
    return JobSpec(
        algorithm,
        GraphSpec.make("pairing_regular", seed=3, d=4, n=64),
        optimum="none",
    )


class _HalfSelecting(VectorPortOne):
    """Port-one with its mask damaged: global port 0 selected, its mate
    not — a one-sided selection written straight into the mask."""

    __slots__ = ()

    def _step(self, rnd):
        ks = np.flatnonzero(self.running)
        ports = np.zeros(self.vg.num_ports, dtype=bool)
        ports[0] = True
        self.halt_nodes(ks, ports)


class _SelectsNothing(VectorPortOne):
    """Consistent but empty: passes §2.2, fails feasibility."""

    __slots__ = ()

    def _step(self, rnd):
        self.halt_nodes(np.flatnonzero(self.running))


class TestChecksRunOnEveryUnit:
    def test_one_sided_mask_fails_a_quality_unit(self, monkeypatch):
        monkeypatch.setattr(
            PortOneEDS, "vector_program",
            classmethod(lambda cls, graph: _HalfSelecting(graph)),
        )
        spec = pairing_unit()
        graph = spec.graph.build()
        v, i = graph.compiled().port(0)
        u, j = graph.connection(v, i)
        with use_engine("vector"):
            with pytest.raises(
                InconsistentOutputError,
                match=rf"inconsistent output: {i} ∈ X\({v!r}\) and "
                rf"p\({v!r}, {i}\) = \({u!r}, {j}\) but {j} ∉ X\({u!r}\)",
            ):
                execute_unit(spec)

    def test_infeasible_mask_fails_a_quality_unit(self, monkeypatch):
        monkeypatch.setattr(
            PortOneEDS, "vector_program",
            classmethod(lambda cls, graph: _SelectsNothing(graph)),
        )
        with use_engine("vector"):
            with pytest.raises(AlgorithmContractError, match="infeasible"):
                execute_unit(pairing_unit())

    @pytest.mark.parametrize("engine", RUNNABLE)
    @pytest.mark.parametrize(
        "output,message",
        [
            (frozenset({7}), "node 0 output invalid port 7"),
            (None, "node 0 halted without output"),
        ],
        ids=["port-7", "no-output"],
    )
    def test_bad_output_raises_when_packed(self, engine, output, message):
        class HaltsWithOutput(NodeProgram):
            """Halts with *output* at degree 1, bypassing ``halt``'s own
            checks (as a buggy subclass could)."""

            def send(self, rnd):
                return {}

            def receive(self, rnd, inbox):
                self._halted = True
                self._output = output

        graph = from_networkx(nx.path_graph(2))
        with pytest.raises(InconsistentOutputError, match=message):
            with run_under(engine):
                run_anonymous(graph, HaltsWithOutput)

    def test_missing_output_fails_the_reference_decoder(self):
        graph = from_networkx(nx.path_graph(2))
        with pytest.raises(InconsistentOutputError,
                           match="halted without output"):
            decode_edge_set(graph, {0: None, 1: None})


def test_quality_unit_on_vector_builds_no_port_edges(monkeypatch):
    built = []
    original = PortEdge.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(PortEdge, "__post_init__", counting)
    with use_engine("vector"):
        for name in ("port_one", "bounded_degree"):
            record = execute_unit(pairing_unit(name))
            assert record.solution_size > 0
    assert built == []


# -- telemetry ---------------------------------------------------------------


@pytest.mark.parametrize(
    "engine,name",
    [
        ("vector", "bounded_degree"),
        ("compiled", "bounded_degree"),
        ("compiled", "randomized_matching"),  # per-node, randomised
    ],
)
def test_simulate_splits_into_setup_rounds_egress(engine, name):
    spec = JobSpec(
        name,
        GraphSpec.make("regular", seed=1, d=3, n=16),
        optimum="none",
    )
    with recording() as rec:
        with use_engine(engine):
            execute_unit(spec)
    spans = rec.spans
    (sim,) = [i for i, s in enumerate(spans) if s.name == "simulate"]
    children = {s.name for s in spans if s.parent == sim}
    assert {"simulate:setup", "simulate:rounds",
            "simulate:egress"} <= children
    assert spans[sim].attrs["engine"] == engine
    assert spans[sim].attrs["rounds"] > 0
