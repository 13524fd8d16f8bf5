"""Byte pins of the dict route: graphs built from ``(d, p)`` dicts.

The record fixtures (``pre_refactor_records.json``,
``v2_optimum_keys.json``) pin only array-built families.  These digests
pin the other construction route: every family whose generator hands
:class:`~repro.portgraph.graph.PortNumberedGraph` its degree and
involution dicts, the lower-bound instances and their quotient
multigraphs (directed and undirected loops, parallel edges), and a
``numbering=`` build of ``regular``.

Each graph pins the sha256 of its node tuple and compiled arrays; each
unit pins the sha256 of its canonical record bytes.  Cache keys name the
spec, not the graph, so a lowering change that moved either would serve
stale cached records under unchanged keys.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.registry.builtins  # noqa: F401  (populate the registry)
from repro.engine.executor import execute_unit
from repro.engine.spec import GraphSpec, JobSpec
from repro.generators.regular import random_regular
from repro.portgraph.numbering import random_numbering, sequential_numbering

SPECS = {
    "bounded": GraphSpec.make("bounded", seed=3, n=12, max_degree=3),
    "tree": GraphSpec.make("tree", seed=4, n=10),
    "star": GraphSpec.make("star", seed=2, leaves=5),
    "caterpillar": GraphSpec.make("caterpillar", seed=1, spine=3, legs=2),
    "crown": GraphSpec.make("crown", seed=5, k=4),
    "matching_union": GraphSpec.make("matching_union", pairs=3),
    "lower_bound_even": GraphSpec.make("lower_bound_even", d=4),
    "lower_bound_odd": GraphSpec.make("lower_bound_odd", d=3),
}

#: One unit per spec: ``quality`` on the plain families, ``adversary``
#: (the only measure they take) on the lower-bound instances.
UNITS = {
    "bounded": JobSpec("bounded_degree", SPECS["bounded"]),
    "tree": JobSpec("bounded_degree", SPECS["tree"]),
    "star": JobSpec("port_one", SPECS["star"]),
    "caterpillar": JobSpec("bounded_degree", SPECS["caterpillar"]),
    "crown": JobSpec("regular_odd", SPECS["crown"]),
    "matching_union": JobSpec("port_one", SPECS["matching_union"]),
    "lower_bound_even": JobSpec(
        "port_one", SPECS["lower_bound_even"], measure="adversary"
    ),
    "lower_bound_odd": JobSpec(
        "regular_odd", SPECS["lower_bound_odd"], measure="adversary"
    ),
}


def build(name: str):
    if name == "regular:random_numbering":
        return random_regular(3, 10, seed=5, numbering=random_numbering(5))
    if name == "regular:sequential_numbering":
        return random_regular(4, 9, seed=2, numbering=sequential_numbering)
    family, _, part = name.partition(":")
    built = SPECS[family].build()
    return getattr(built, part) if part else built


def graph_digest(graph) -> str:
    c = graph.compiled()
    h = hashlib.sha256(repr(c.nodes).encode())
    for table in (c.offsets, c.mate, c.port_node):
        h.update(table.tobytes())
    return h.hexdigest()


PINNED_GRAPHS = {
    "bounded": (
        "4edbb77d1ea98c7fac24d8c939dd0cb6fac665c942d81ead574551e219b14572"
    ),
    "tree": (
        "35dfa1fc9d562a61a44004847d3ea17441896d384d7c1184c93a9a6fae2b3f2d"
    ),
    "star": (
        "d392a680d7cf4d45a313d21144e618791d155171b65b056acb6fd53503c2b05f"
    ),
    "caterpillar": (
        "7da9d50d5ed6f825d88cc57d9949bd3cbb6186debda21d5ec9fd2cf2c89085b5"
    ),
    "crown": (
        "eff4c50a47ec13fb1a3762940ea8f2fd4ba8ea9c3de6624cc12ac4fa39b1c2dc"
    ),
    "matching_union": (
        "f39d0875c71f086d9aed0169f6a3bc603186cf8a2577113ff563df9bac84984d"
    ),
    "lower_bound_even:graph": (
        "66886ff9632a5e4e52af59e62c272e15f2dee3468ee040c5609932980293d5d4"
    ),
    "lower_bound_even:quotient": (
        "2290205198a29b34424d5af3b31bfd4b6b645e02553d38c171346203af904aa2"
    ),
    "lower_bound_odd:graph": (
        "26bc8d8fce706e088770fe8f2c9ce2d9b2c19df5cba878915dc3364066c27ae5"
    ),
    "lower_bound_odd:quotient": (
        "7ca49d4dc87f6917d56cdfe2210862788317f9d24a5f0e0a47e82ccc12dab22b"
    ),
    "regular:random_numbering": (
        "6b4947ac0d8973d78c527ee759327b36fc1506e6bd6eba30cb57f392bae1f9f0"
    ),
    "regular:sequential_numbering": (
        "ae187e82e794ebc141bdb55d941f3eb89e6d7ef26f0a4d5ba0a215f0e5f7e38c"
    ),
}

PINNED_RECORDS = {
    "bounded": (
        "e5e5245a5e42683de4f3e94f26bb6eb6e7bfb8c1432b062a84ae3a1690007bfa"
    ),
    "tree": (
        "b18c441ae9cf85a5864fcbd5f598ad338695044ba625ed7ce205bc2e5476b480"
    ),
    "star": (
        "434aef01d31dc7684739890943a044a05d09e4fa73438765d4261b737b79c2f3"
    ),
    "caterpillar": (
        "9e4d97dd3e0e38a53a4f6cc6b460b0acce25975b9ff1d1ca298fb33446f6bab7"
    ),
    "crown": (
        "a31a1277dd70307fb99134ac79fcf7b88225d3134513561fa51a0d052aa48f35"
    ),
    "matching_union": (
        "d90d12c8d8211e78e57934037e3908f0f6ac149914521c359a87f02c0f9c5b27"
    ),
    "lower_bound_even": (
        "c59b2e928c07a0c92d599e08a56f316cc4aed20b2a24403b1316f19908f5f635"
    ),
    "lower_bound_odd": (
        "b272f47d203ae22bbe348bcfaabd1f1f752830d08a91e9f27f12b2ec3e028f32"
    ),
}


class TestDictRoutePins:
    @pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
    def test_graph_bytes_pinned(self, name):
        assert graph_digest(build(name)) == PINNED_GRAPHS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
    def test_record_bytes_pinned(self, name):
        canonical = execute_unit(UNITS[name]).canonical()
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert digest == PINNED_RECORDS[name]

    def test_every_family_pinned(self):
        assert set(UNITS) == set(SPECS)
        assert set(PINNED_RECORDS) == set(UNITS)
        assert {name.partition(":")[0] for name in PINNED_GRAPHS} == (
            set(SPECS) | {"regular"}
        )
