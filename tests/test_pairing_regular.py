"""Tests for the streaming pairing-model d-regular generator.

`pairing_regular` builds compiled arrays in O(nd) without networkx.  Its
contract: exact d-regularity, simplicity after switch-repair,
determinism as a pure function of ``(d, n, seed)``, and — critically for
the shared result cache, whose keys name the spec rather than the graph —
**the same bytes on every commit**, pinned by :data:`PINNED_DIGESTS`.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.engine.executor import execute_unit
from repro.engine.spec import GraphSpec, JobSpec
from repro.exceptions import ConstructionError
from repro.generators.pairing import pairing_regular
from repro.registry.families import get_family


def compiled_bytes(graph):
    c = graph.compiled()
    return (
        c.offsets.tobytes(), c.mate.tobytes(), c.port_node.tobytes()
    )


#: sha256 of the compiled ``offsets`` / ``mate`` / ``port_node`` bytes
#: per ``(d, n, seed)``.  Cache keys name the spec, not the graph, so a
#: generator change that moves any of them would serve stale cached
#: records under unchanged keys.
PINNED_DIGESTS = {
    (2, 12, 3): (
        "572aeb11c7e11b7c8c5141ad060a183b5fdee04750cf11c27b7631d4656ad33e",
        "4c2a1d66369b1fd1547d86b2c5968bd8e2b206c0e8179da3deff71fb5a6e417f",
        "760b7e4622f78e8577b361e62c25eacd2159521dcde803bbd7cc7119bfed2629",
    ),
    (3, 14, 1): (
        "4215acc8c95eed2b964858e5db868bbc97f5ffeefa8bab0931db09ead1a59a0d",
        "ca5a08a176a2b15cf49b13bf3d3201b79fbbaf66214d9521bd42b6bdf44b6917",
        "b7c50d0c3c8e2698a971e753ddb3e787a3db7b5ff0adde8bad4d15df6103c065",
    ),
    (4, 25, 5): (
        "3c1c769458b1f1bf300b9356b8bcbf1fbb57881c0e6fd2ae0efcaa125fce0863",
        "b33d30bd2c064770f3766357e9645606bd3b64e185e5b93b99caced35c61e60d",
        "7b31772a2ac0243c20793c97964b4ec47ffca8700e3605929ed3e88bc7936014",
    ),
    (5, 30, 2): (
        "3c47ba9d6533e407dd334007cb3fd208edef773145168e36232e033526a8057e",
        "2b022bad6ccbd52c6c372a5505ef14dd2b6a4e3332320f27c633bf2e1426e2a6",
        "0f56e4a0a7e023d6f204b5573ed9f2088a92541bb96c5b9a5de2e28f586f7414",
    ),
    (8, 40, 4): (
        "3e27594cc10c8c88e89d39f1e2f055e29272e272421675f5c958c74daeb50dcb",
        "a12566182f12dda86f8450cbe0ea5a0ea2ba25d443b8daba5a102a7103454ec8",
        "51d09181e9b659e7a2ca39787872f49b0b0a6ef42ed926b5df243a772615d33c",
    ),
    (3, 1000, 7): (
        "a60d6a33e46dce858419f3ab4505268983e2d67ba335aa26815dd49624e98270",
        "cfc999ef54ea62e93e0dc41f3bd5c11866add23f2c79c39749bfbfeb13d1eca4",
        "cd3627d7e0128f9598b3f4192e9b44abf3f12805ceeb9df0d7ab5387271f1755",
    ),
    # Large enough that the shuffle replay resolves most draws in
    # vectorised blocks; d=4, n=65536 is the certified-bounds cell.
    (4, 65536, 0): (
        "7ae97d7b9735885a8abbddb8dd61844dbc8bc8c9b3e064d8042770f15b3a3ecf",
        "29154ce78d502ee0a9dd8a56a93dc9c4200b76097b560a5900c51d5041a86801",
        "7ed1fcc74b22709baccd49a48570d139015e4255185a2d2b483c71854d6eb775",
    ),
    (8, 16384, 1): (
        "4431649a334be5e233fe71122164ce399a58a8006f8c288edd3994a7815bec7e",
        "37d6281043b24a73c52b407d85685d74aa50f3fc2ee68bc8d73eeb30e0a6975e",
        "8de143ad62d3eb7314cb833adf661961593154c6178ae16c439d50721b867f88",
    ),
}


class TestStructure:
    @pytest.mark.parametrize("d,n", [
        (1, 2), (1, 8), (2, 3), (2, 16), (3, 4), (3, 20),
        (4, 9), (4, 50), (8, 30), (7, 8),
    ])
    def test_simple_d_regular(self, d, n, array_route):
        graph = array_route(pairing_regular, d, n, seed=5)
        assert graph.nodes == tuple(range(n))
        assert graph.regularity() == d
        assert graph.is_simple()
        assert graph.num_edges == n * d // 2

    def test_smallest_feasible_is_complete(self):
        # d=3, n=4: K4 is the unique simple 3-regular graph on 4 nodes,
        # so the switch-repair must land on it from any pairing.
        for seed in range(10):
            graph = pairing_regular(3, 4, seed=seed)
            assert graph.is_simple()
            assert {frozenset(e.endpoints) for e in graph.edges} == {
                frozenset({a, b})
                for a in range(4) for b in range(a + 1, 4)
            }

    @pytest.mark.parametrize("d,n", [(0, 4), (-1, 4), (3, 3), (3, 2),
                                     (3, 5), (5, 7)])
    def test_infeasible_raises(self, d, n):
        with pytest.raises(ConstructionError):
            pairing_regular(d, n, seed=0)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = pairing_regular(4, 60, seed=123)
        b = pairing_regular(4, 60, seed=123)
        assert compiled_bytes(a) == compiled_bytes(b)
        assert a == b and hash(a) == hash(b)

    def test_different_seeds_differ(self):
        a = pairing_regular(4, 60, seed=1)
        b = pairing_regular(4, 60, seed=2)
        assert compiled_bytes(a) != compiled_bytes(b)

    @pytest.mark.parametrize("d,n,seed", sorted(PINNED_DIGESTS))
    def test_bytes_pinned(self, d, n, seed):
        """The cache contract: the same spec builds the same graph, byte
        for byte, on every commit."""
        digests = tuple(
            hashlib.sha256(buf).hexdigest()
            for buf in compiled_bytes(pairing_regular(d, n, seed=seed))
        )
        assert digests == PINNED_DIGESTS[d, n, seed]


class TestEngineIntegration:
    def test_registry_family(self):
        graph = get_family("pairing_regular").make({"d": 3, "n": 12}, 4)
        assert graph == pairing_regular(3, 12, seed=4)

    def test_unit_executes_feasibly(self):
        record = execute_unit(JobSpec(
            algorithm="bounded_degree",
            graph=GraphSpec.make("pairing_regular", seed=2, d=3, n=24),
            measure="quality", optimum="dual_bound", label="",
        ))
        assert record.num_nodes == 24
        assert record.num_edges == 36
        assert record.max_degree == 3
        assert record.solution_size > 0
        # dual_bound units certify a two-sided optimum bracket.
        assert record.optimum_lower <= record.optimum_upper
        assert record.solution_size >= record.optimum_lower

    def test_grid_expansion_labels(self):
        from repro.engine.scenarios import get_scenario

        grid = get_scenario("huge-regular")
        units = grid.expand()
        assert units, "huge-regular expanded to nothing"
        assert all(u.graph.family == "pairing_regular" for u in units)
        assert all(u.optimum == "dual_bound" for u in units)
        # regular_odd applies only to odd degrees.
        assert not any(
            u.algorithm == "regular_odd" and u.graph.params[0][1] % 2 == 0
            for u in units
        )

    def test_huge_slice_smoke(self):
        # A tiny stand-in for the n=10^6 acceptance run: the direct
        # build must stay well under a second at n=20k.
        graph = pairing_regular(4, 20_000, seed=0)
        assert graph.num_edges == 40_000
        assert graph.is_simple()
