"""The ``regular`` family's array replay of networkx's sampler.

Without ``numbering=``, ``random_regular`` draws its edges with an
in-repo replay of ``nx.random_regular_graph`` (Steger–Wormald pairing
rounds on the same ``random.Random(seed)``) and lowers them to CSR with
numpy.  Its contract: the edge set networkx draws, on every cell —
restarts and the rebinding quirk of networkx's ``_suitable`` included —
and **the same bytes on every commit**, pinned by
:data:`PINNED_DIGESTS` so that a future networkx release cannot move
cached records under unchanged keys.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import repro
from repro.exceptions import ConstructionError
from repro.generators.direct import _repr_order
from repro.generators.regular import _regular_edges, random_regular
from repro.generators.shuffle import ShuffleStream
from repro.portgraph.numbering import sequential_numbering

#: d ∈ 1..8, n ∈ {d+1..d+4, 16, 33, 100}, seeds 0–5.  The grid holds
#: whole-attempt restarts (110 of its cells) and every cell where
#: networkx's ``_suitable`` rebinding decides a restart that a plain
#: "any non-edge pair" test would not, e.g. (6, 8, 2), (7, 10, 2),
#: (8, 11, 2..5), (7, 16, 0) and (8, 16, 4).
GRID = [
    (d, n, seed)
    for d in range(1, 9)
    for n in [*range(d + 1, d + 5), 16, 33, 100]
    if n * d % 2 == 0
    for seed in range(6)
]


def edge_set(u, v) -> set[tuple[int, int]]:
    return {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}


def graph_edge_set(graph) -> set[tuple[int, int]]:
    cg = graph.compiled()
    owner = np.frombuffer(cg.port_node, dtype=np.int64)
    peer = owner[np.frombuffer(cg.mate, dtype=np.int64)]
    nodes = np.array(cg.nodes, dtype=np.int64)
    return edge_set(nodes[owner], nodes[peer])


class TestReplayMatchesNetworkx:
    def test_grid_edge_sets(self):
        for d, n, seed in GRID:
            with ShuffleStream(random.Random(seed)) as stream:
                u, v = _regular_edges(d, n, stream)
            expected = nx.random_regular_graph(d, n, seed=seed)
            assert edge_set(u, v) == {
                tuple(sorted(e)) for e in expected.edges
            }, (d, n, seed)
            assert len(u) == n * d // 2, (d, n, seed)

    @pytest.mark.parametrize("d,n,seed", [(3, 10, 5), (8, 11, 3)])
    def test_public_route(self, d, n, seed, array_route):
        graph = array_route(random_regular, d, n, seed=seed)
        assert graph_edge_set(graph) == {
            tuple(sorted(e))
            for e in nx.random_regular_graph(d, n, seed=seed).edges
        }


#: sha256 of the compiled ``offsets`` / ``mate`` / ``port_node`` bytes
#: per ``(d, n, seed)``, recorded on the networkx route.  Cache keys name
#: the spec, not the graph, so any change that moves them would serve
#: stale cached records under unchanged keys.
PINNED_DIGESTS = {
    (3, 10, 5): (
        "8ea07f1f680d5a45ccfa33fd83d061cd9d9b5b7e77d7d4bb7a171ec1d342147a",
        "1963b89cbc85e0611fee6bd500ce9c01f4547b777c9b9d9de28ecc2b60045b3d",
        "96c8c1fb23425f25e947b5a6706bf75d0779bc56c2f952ba7397350fc1e1f111",
    ),
    (4, 16, 8): (
        "03b509f16ed7f2c01352292ae99cf080bb38a798eb8770c558556cf4f285bb21",
        "6f3bd503d63574fec9a7c82d22d4a5fa5da1d35d6c0c1bf45ec3659d5b1f76ea",
        "517b3f4836cf18b811d6f8a417ae7b3c3799ec5451bc9b7c6894c35f75de7ec7",
    ),
    (6, 8, 2): (
        "0f24783a1e5592805f92bf54dd3ffd69ad80b223c3ca70af2187bd4956e12ade",
        "36921bbc9241d73ba60b496c03f746263b3d2d6c2b1e16dd46390ca473bf251a",
        "9611e0867705e418a348fb6585adad450252583d9c216fe208609251c735afc7",
    ),
    (8, 11, 3): (
        "bc308ccbb8ee13133201b57a202553404acf9790cf8e362104257294caeb4a05",
        "2005560019b5c4e931761639bd2c88d432483a3115cd927004d405c7fd43f080",
        "77c950c186b40845d5786694ee3a322bfbbf803e15358637ea0ffe22a5444f7d",
    ),
    (3, 256, 0): (
        "65f333f900e7528483cbbb09cb86d8f12026aec287db603ed7c7788bc9370ea7",
        "49bbeb204c520221ff4f7b59053e962be414084c19b250e89a332d9cfa1eb51a",
        "c02ece1b3067d513ec6c1493a647df12ad5d959cd629d2b02266b4fa93999193",
    ),
    (5, 1024, 1): (
        "9e580814b0da1aa998003d5a444c6f84dd1a8c2c273eb93a80b0eaa0f127b798",
        "5ef53e23afb654fbdb50d1ba222354af385d603834e4ffc59fdc1fc0bea95b73",
        "d38ece087f8e5bab097d606060a717f1db0598456a2d00e55415e64def8f2103",
    ),
}


@pytest.mark.parametrize("d,n,seed", sorted(PINNED_DIGESTS))
def test_bytes_pinned(d, n, seed):
    c = random_regular(d, n, seed=seed).compiled()
    digests = tuple(
        hashlib.sha256(table.tobytes()).hexdigest()
        for table in (c.offsets, c.mate, c.port_node)
    )
    assert digests == PINNED_DIGESTS[d, n, seed]


class TestInputs:
    @pytest.mark.parametrize("numbering", [None, sequential_numbering])
    def test_negative_degree_raises(self, numbering):
        with pytest.raises(ConstructionError):
            random_regular(-1, 4, seed=0, numbering=numbering)

    @pytest.mark.parametrize("d,n", [(3, 3), (3, 5), (2, 0)])
    def test_infeasible_raises(self, d, n):
        with pytest.raises(ConstructionError):
            random_regular(d, n, seed=0)

    @pytest.mark.parametrize("seed", [None, 0, 3])
    def test_zero_degree_is_isolated_nodes(self, seed):
        graph = random_regular(0, 5, seed=seed)
        assert graph.num_nodes == 5
        assert graph.num_edges == 0
        assert set(graph.degrees.values()) == {0}

    def test_seed_none_draws_from_module_random(self):
        state = random.getstate()
        try:
            random.seed(2024)
            graph = random_regular(3, 12, seed=None)
            after_replay = random.getstate()
            random.seed(2024)
            expected = nx.random_regular_graph(3, 12, seed=None)
            assert random.getstate() == after_replay
        finally:
            random.setstate(state)
        assert graph_edge_set(graph) == {
            tuple(sorted(e)) for e in expected.edges
        }


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 1234])
def test_repr_order(n):
    assert _repr_order(n).tolist() == sorted(range(n), key=repr)


#: One certified unit on each default regular route through the public
#: API, then the modules they loaded.
DEFAULT_ROUTES_SCRIPT = """
import sys
import repro.api as api
from repro.engine.spec import GraphSpec
for family, algorithm in [("regular", "port_one"),
                          ("pairing_regular", "bounded_degree")]:
    api.run_one(
        algorithm, GraphSpec.make(family, d=4, n=256, seed=1),
        optimum="dual_bound",
    )
print("networkx" in sys.modules)
"""


def test_default_routes_leave_networkx_unimported():
    # Neither default regular route calls networkx, so a process that
    # only runs them never pays its import.
    env = dict(os.environ)
    src = Path(repro.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", DEFAULT_ROUTES_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
