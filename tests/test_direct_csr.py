"""Differential tests for the direct-to-CSR construction path.

The structured families (`cycle`, `complete`, `complete_bipartite`,
`hypercube`, `torus`, `path`, `grid`) and `random_regular` build
compiled arrays directly when no explicit numbering is requested: their
edges (for `random_regular`, the array replay of networkx's sampler)
are lowered with numpy.  That fast path must be
**byte-identical** to the historical networkx route: same node order,
same port assignment, same canonical edge order, same compiled arrays,
same cache keys and record bytes.  These tests pin that contract, plus
the validation and degenerate-input behaviour of
:meth:`~repro.portgraph.graph.PortNumberedGraph.from_arrays`, and check
every accessor against plain Python over the ``(d, p)`` dicts a graph was
built from.
"""

from __future__ import annotations

import pickle
from array import array
from unittest import mock

import pytest

import repro.registry.builtins  # noqa: F401  (populate the registry)
from repro.engine.cache import cache_key
from repro.engine.executor import execute_unit
from repro.engine.measures import default_execute
from repro.engine.spec import GraphSpec, JobSpec
from repro.exceptions import (
    ConstructionError,
    InvolutionError,
    PortNumberingError,
)
from repro.generators.bounded import grid, path
from repro.generators.regular import (
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    random_regular,
    torus,
)
from repro.lowerbounds.even import build_even_lower_bound
from repro.lowerbounds.odd import build_odd_lower_bound
from repro.portgraph import convert
from repro.portgraph.compiled import CompiledGraph
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.numbering import random_numbering, sequential_numbering
from repro.portgraph.ports import PortEdge, port_sort_key
from repro.registry import get_measure

#: (family callable, positional args) — every direct-path builder.
FAMILIES = [
    ("cycle", cycle, (3,)),
    ("cycle", cycle, (9,)),
    ("cycle", cycle, (12,)),
    ("complete", complete, (2,)),
    ("complete", complete, (7,)),
    ("complete_bipartite", complete_bipartite, (1, 1)),
    ("complete_bipartite", complete_bipartite, (3, 5)),
    ("hypercube", hypercube, (1,)),
    ("hypercube", hypercube, (4,)),
    ("torus", torus, (3, 3)),
    ("torus", torus, (3, 5)),
    ("path", path, (1,)),
    ("path", path, (2,)),
    ("path", path, (11,)),
    ("grid", grid, (0, 3)),
    ("grid", grid, (1, 4)),
    ("grid", grid, (3, 4)),
]

SEEDS = [None, 0, 7, 12345]

from_arrays = PortNumberedGraph.from_arrays


def nx_forced(build, args, seed):
    """The same family through the historical networkx route."""
    numbering = (
        sequential_numbering if seed is None else random_numbering(seed)
    )
    return build(*args, seed=seed, numbering=numbering)


def dict_route(build, args, seed):
    """The networkx-route graph and the ``(d, p)`` dicts it was built
    from; fails unless exactly one dict construction ran."""
    captured = []
    real = convert.PortNumberedGraph

    def capture(degrees, involution):
        captured.append((dict(degrees), dict(involution)))
        return real(degrees, involution)

    with mock.patch.object(convert, "PortNumberedGraph", capture):
        graph = nx_forced(build, args, seed)
    ((degrees, involution),) = captured
    return graph, degrees, involution


#: ``(degrees, involution)`` inputs of the dict constructor: a directed
#: loop, an undirected loop, parallel edges, isolated nodes, mixed int
#: and tuple labels (whose ``repr`` order is neither numeric nor
#: insertion order), and all of them at once (paper Figure 2's M).
DICT_GRAPHS = [
    ({5: 1}, {(5, 1): (5, 1)}),
    ({"a": 2}, {("a", 1): ("a", 2), ("a", 2): ("a", 1)}),
    ({0: 2, 1: 2},
     {(0, 1): (1, 1), (1, 1): (0, 1), (0, 2): (1, 2), (1, 2): (0, 2)}),
    ({"z": 0, "u": 1, "v": 1, "y": 0},
     {("u", 1): ("v", 1), ("v", 1): ("u", 1)}),
    ({10: 2, 2: 1, (0, 1): 2, (1,): 1, 0: 0},
     {(10, 1): ((0, 1), 2), ((0, 1), 2): (10, 1),
      (10, 2): (2, 1), (2, 1): (10, 2),
      ((0, 1), 1): ((1,), 1), ((1,), 1): ((0, 1), 1)}),
    ({"s": 3, "t": 4},
     {("s", 1): ("t", 2), ("t", 2): ("s", 1),
      ("s", 2): ("t", 1), ("t", 1): ("s", 2),
      ("s", 3): ("s", 3),
      ("t", 3): ("t", 4), ("t", 4): ("t", 3)}),
    ({}, {}),
]


def assert_accessors_match_dicts(graph, degrees, involution):
    """Every accessor of *graph* against plain Python over the
    ``(d, p)`` dicts it was built from."""
    nodes = sorted(degrees, key=repr)
    ports = sorted(involution, key=port_sort_key)
    edges, seen = [], set()
    for port in ports:
        if port not in seen:
            seen |= {port, involution[port]}
            edges.append(PortEdge.make(*port, *involution[port]))
    pairs = [e.endpoints for e in edges]
    distinct = set(degrees.values())

    assert graph.nodes == tuple(nodes)
    assert graph.num_nodes == len(nodes)
    assert graph.degrees == degrees
    assert graph.involution == involution
    assert list(graph.all_ports) == ports
    assert graph.edges == tuple(edges)
    assert graph.num_edges == len(edges)
    assert graph.regularity() == (
        next(iter(distinct)) if len(distinct) == 1 else None
    )
    assert graph.max_degree == max(degrees.values(), default=0)
    assert graph.is_simple() == (
        all(not e.is_loop for e in edges) and len(set(pairs)) == len(pairs)
    )
    for v in nodes:
        assert graph.degree(v) == degrees[v]
        assert graph.ports(v) == range(1, degrees[v] + 1)
        assert graph.neighbours(v) == tuple(
            involution[v, i][0] for i in range(1, degrees[v] + 1)
        )
        assert graph.edges_at(v) == tuple(
            PortEdge.make(v, i, *involution[v, i])
            for i in range(1, degrees[v] + 1)
        )
    for (v, i), (u, j) in involution.items():
        assert graph.connection(v, i) == (u, j)
        assert graph.neighbour(v, i) == u
        assert graph.edge_at(v, i) == PortEdge.make(v, i, u, j)
    for v in nodes:
        for bad in (0, degrees[v] + 1):
            with pytest.raises(KeyError):
                graph.connection(v, bad)


def assert_graphs_byte_identical(direct, reference, context: str):
    # Model-level identity: nodes, degrees, involution, canonical edges.
    assert tuple(direct.nodes) == tuple(reference.nodes), context
    assert dict(direct.degrees) == dict(reference.degrees), context
    assert dict(direct.involution) == dict(reference.involution), context
    assert direct.edges == reference.edges, context
    assert direct == reference and hash(direct) == hash(reference), context
    # Compiled-array identity: the CSR lowering must match byte for byte.
    dc, rc = direct.compiled(), reference.compiled()
    assert dc.nodes == rc.nodes, context
    assert dc.offsets.tobytes() == rc.offsets.tobytes(), context
    assert dc.mate.tobytes() == rc.mate.tobytes(), context
    assert dc.port_node.tobytes() == rc.port_node.tobytes(), context


class TestStructuredFamilyByteIdentity:
    @pytest.mark.parametrize(
        "name,build,args",
        FAMILIES,
        ids=[f"{n}{a}" for n, _, a in FAMILIES],
    )
    def test_direct_matches_networkx(self, name, build, args, array_route):
        for seed in SEEDS:
            direct = array_route(build, *args, seed=seed)
            reference, _, _ = dict_route(build, args, seed)
            assert_graphs_byte_identical(
                direct, reference, f"{name}{args} seed={seed}"
            )

    def test_derived_properties_match(self):
        for build, args in [(torus, (3, 4)), (grid, (2, 5)), (cycle, (6,))]:
            reference, degrees, involution = dict_route(build, args, 3)
            assert_accessors_match_dicts(reference, degrees, involution)
            direct = build(*args, seed=3)
            assert_accessors_match_dicts(direct, degrees, involution)
        for degrees, involution in DICT_GRAPHS:
            graph = PortNumberedGraph(degrees, involution)
            assert_accessors_match_dicts(graph, degrees, involution)

    def test_construction_errors_unchanged(self):
        with pytest.raises(ConstructionError):
            cycle(2)
        with pytest.raises(ConstructionError):
            complete(1)
        with pytest.raises(ConstructionError):
            complete_bipartite(0, 3)
        with pytest.raises(ConstructionError):
            torus(2, 5)
        with pytest.raises(ConstructionError):
            path(0)

    @pytest.mark.parametrize("d,n", [(3, 10), (4, 16), (5, 32), (8, 64)])
    def test_random_regular_matches_networkx(self, d, n, array_route):
        """The array replay draws networkx's edges and the numpy
        lowering numbers the ports as the ``from_networkx`` dict route
        does."""
        for seed in (0, 7, 12345):
            direct = array_route(random_regular, d, n, seed=seed)
            reference, _, _ = dict_route(random_regular, (d, n), seed)
            assert_graphs_byte_identical(
                direct, reference, f"regular d={d} n={n} seed={seed}"
            )

    def test_pickle_round_trip(self):
        """Every graph pickles as its arrays; a dict-built graph comes
        back equal, with the same hash, and materialises the same
        dicts."""
        direct = torus(3, 5, seed=9)
        clone = pickle.loads(pickle.dumps(direct))
        assert_graphs_byte_identical(clone, direct, "pickle round trip")
        assert clone == nx_forced(torus, (3, 5), 9)
        dict_built = [
            nx_forced(torus, (3, 5), 9),
            build_even_lower_bound(4).quotient,
            build_odd_lower_bound(3).quotient,
        ] + [PortNumberedGraph(d, p) for d, p in DICT_GRAPHS]
        for graph in dict_built:
            clone = pickle.loads(pickle.dumps(graph))
            assert_graphs_byte_identical(clone, graph, repr(graph))


class TestRecordAndKeyParity:
    """Registry-built units reproduce the networkx-era record bytes."""

    SPECS = [
        JobSpec(
            algorithm="port_one",
            graph=GraphSpec.make("cycle", seed=3, n=9),
            measure="quality", optimum="auto", label="",
        ),
        JobSpec(
            algorithm="bounded_degree",
            graph=GraphSpec.make("grid", seed=None, rows=3, cols=4),
            measure="quality", optimum="auto", label="",
        ),
        JobSpec(
            algorithm="bounded_degree",
            graph=GraphSpec.make("torus", seed=11, rows=3, cols=3),
            measure="quality", optimum="auto", label="",
        ),
        JobSpec(
            algorithm="regular_odd",
            graph=GraphSpec.make("regular", seed=5, d=3, n=10),
            measure="quality", optimum="auto", label="",
        ),
        JobSpec(
            algorithm="bounded_degree",
            graph=GraphSpec.make("regular", seed=8, d=4, n=16),
            measure="messages", optimum="none", label="",
        ),
    ]

    def _nx_record(self, spec, monkeypatch):
        import repro.registry.builtins as builtins_mod

        forced = {
            "cycle": lambda n, *, seed=None: nx_forced(cycle, (n,), seed),
            "grid": lambda r, c, *, seed=None: nx_forced(grid, (r, c), seed),
            "torus": lambda r, c, *, seed=None: nx_forced(
                torus, (r, c), seed
            ),
            "random_regular": lambda d, n, *, seed=0: nx_forced(
                random_regular, (d, n), seed
            ),
        }
        name = spec.graph.family
        if name == "regular":
            name = "random_regular"
        monkeypatch.setattr(builtins_mod, name, forced[name])
        return execute_unit(spec)

    @pytest.mark.parametrize("index", range(len(SPECS)))
    def test_records_byte_identical(self, index, monkeypatch):
        spec = self.SPECS[index]
        direct_record = execute_unit(spec)
        nx_record = self._nx_record(spec, monkeypatch)
        assert direct_record.to_json_dict() == nx_record.to_json_dict()
        assert cache_key(spec) == direct_record.key == nx_record.key


class TestArrayGraphValidation:
    def arrays_for(self, graph):
        c = graph.compiled()
        return (
            tuple(c.nodes),
            tuple(graph.degree(v) for v in c.nodes),
            array("q", c.offsets),
            array("q", c.mate),
            array("q", c.port_node),
        )

    def test_validate_accepts_well_formed(self):
        nodes, degrees, offsets, mate, port_node = self.arrays_for(cycle(5))
        rebuilt = from_arrays(nodes, degrees, offsets, mate, port_node)
        assert rebuilt == cycle(5)

    def test_rejects_broken_involution(self):
        nodes, degrees, offsets, mate, port_node = self.arrays_for(cycle(5))
        mate[0] = 0 if mate[0] != 0 else 1
        mate_is_fixed_or_paired = mate[mate[0]] == 0
        if mate_is_fixed_or_paired:
            mate[1] = 1  # break pairing elsewhere
        with pytest.raises(InvolutionError):
            from_arrays(nodes, degrees, offsets, mate, port_node)

    def test_rejects_mate_out_of_range(self):
        nodes, degrees, offsets, mate, port_node = self.arrays_for(cycle(5))
        mate[3] = len(mate) + 5
        with pytest.raises(InvolutionError):
            from_arrays(nodes, degrees, offsets, mate, port_node)

    def test_rejects_inconsistent_offsets(self):
        nodes, degrees, offsets, mate, port_node = self.arrays_for(cycle(5))
        offsets[2] += 1
        with pytest.raises(PortNumberingError):
            from_arrays(nodes, degrees, offsets, mate, port_node)

    def test_rejects_duplicate_nodes(self):
        nodes, degrees, offsets, mate, port_node = self.arrays_for(cycle(5))
        with pytest.raises(PortNumberingError):
            from_arrays(
                (nodes[0],) + nodes[1:-1] + (nodes[0],),
                degrees, offsets, mate, port_node,
            )

    def test_rejects_wrong_port_owner(self):
        nodes, degrees, offsets, mate, port_node = self.arrays_for(cycle(5))
        port_node[0] = 1
        with pytest.raises(PortNumberingError):
            from_arrays(nodes, degrees, offsets, mate, port_node)


class TestArrayGraphDegenerate:
    def test_empty_graph(self):
        empty = from_arrays((), (), array("q", [0]), array("q"), array("q"))
        assert empty.num_nodes == 0
        assert empty.num_edges == 0
        assert empty.edges == ()
        assert empty == grid(0, 3) == PortNumberedGraph({}, {})

    def test_single_isolated_node(self):
        lone = from_arrays(
            (0,), (0,), array("q", [0, 0]), array("q"), array("q")
        )
        assert lone.num_edges == 0
        assert lone.degree(0) == 0
        assert lone == path(1) == PortNumberedGraph({0: 0}, {})

    def test_directed_loop_fixed_point(self):
        # One node, one port, mate[0] == 0: a directed self-loop — a
        # legal port-numbered graph that no generator emits but the
        # array layer must model (orbit of size one = one edge).
        loop = from_arrays(
            (5,), (1,), array("q", [0, 1]), array("q", [0]), array("q", [0])
        )
        assert loop.num_edges == 1
        assert not loop.is_simple()
        (edge,) = loop.edges
        assert edge.endpoints == frozenset({5})
        assert loop.connection(5, 1) == (5, 1)
        assert loop == PortNumberedGraph(*DICT_GRAPHS[0])

    def test_two_node_multigraph(self):
        # Double edge between two nodes: valid arrays, not simple.
        double = from_arrays(
            (0, 1), (2, 2), array("q", [0, 2, 4]),
            array("q", [2, 3, 0, 1]), array("q", [0, 0, 1, 1]),
        )
        assert double.num_edges == 2
        assert not double.is_simple()
        assert double == PortNumberedGraph(*DICT_GRAPHS[2])

    def test_from_arrays_skips_flat_list_seeding(self):
        compiled = cycle(6).compiled()
        assert isinstance(compiled, CompiledGraph)
        assert "flat_lists" not in compiled.memo
        mate, port_node = compiled.flat_lists()
        assert mate == list(compiled.mate)
        assert port_node == list(compiled.port_node)


class TestLazyNodeIndex:
    @pytest.mark.parametrize("optimum", ["none", "dual_bound"])
    def test_array_units_leave_node_index_unbuilt(self, optimum):
        """The node → index dict serves per-node lookups only; quality
        units on a direct-to-CSR graph never build it."""
        spec = GraphSpec.make("pairing_regular", seed=0, d=4, n=256)
        graph = spec.build()
        quality = get_measure("quality")
        for algorithm in ("port_one", "bounded_degree"):
            unit = JobSpec(algorithm, spec, optimum=optimum)
            default_execute(quality, unit, cache_key(unit), graph)
        compiled = graph.compiled()
        assert compiled._node_index is None
        v = compiled.nodes[0]
        assert graph.degree(v) == 4
        u, j = graph.connection(v, 1)
        assert graph.connection(u, j) == (v, 1)
        assert compiled.node_index[v] == 0
