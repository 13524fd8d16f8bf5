"""Byte pins for the Section 5 vector-kernel schedules.

The vector kernels precompute, once per compiled graph, every node's
distinguishable port, the ``(node, i, j, port)`` pair-tag rows of the
matchings M(i, j) (Lemmas 1-2), and the step-grouped entry arrays of
the Theorem 4 and Theorem 5 schedules; Theorem 4's kernel builds its
phase III proposal queues from the matching it has so far.  The
differential suite (``tests/test_runtime_compiled.py``) compares kernel
*behaviour* with the per-node programs; these digests pin the arrays
themselves, so a rewrite of the setup passes must reproduce them value
for value.

Every array is cast to int64 before hashing, so a dtype change does
not move a digest; tag rows are hashed sorted by ``(node, i, j,
port)``, because the schedules never see the row order.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from repro.algorithms.vector import (
    VectorBoundedDegree,
    _bounded_schedule,
    _label_tables,
    _regular_odd_schedule,
)
from repro.exceptions import SimulationError
from repro.generators import (
    complete,
    complete_bipartite,
    grid,
    hypercube,
    pairing_regular,
    path,
    random_bounded_degree,
    random_regular,
    torus,
)
from repro.portgraph.builder import PortGraphBuilder
from repro.portgraph.vector import VectorGraph

#: name → builder.  The structured families appear with their
#: sequential numbering (no seed) and with a seeded random numbering.
GRAPHS = {
    "pairing_regular(3, 200, seed=1)": lambda: pairing_regular(3, 200, seed=1),
    "pairing_regular(4, 256, seed=2)": lambda: pairing_regular(4, 256, seed=2),
    "pairing_regular(8, 120, seed=3)": lambda: pairing_regular(8, 120, seed=3),
    "random_regular(3, 60, seed=4)": lambda: random_regular(3, 60, seed=4),
    "random_regular(5, 40, seed=5)": lambda: random_regular(5, 40, seed=5),
    "grid(5, 7)": lambda: grid(5, 7),
    "grid(5, 7, seed=6)": lambda: grid(5, 7, seed=6),
    "path(9)": lambda: path(9),
    "path(9, seed=7)": lambda: path(9, seed=7),
    "complete(6)": lambda: complete(6),
    "complete(7, seed=8)": lambda: complete(7, seed=8),
    "complete_bipartite(3, 5)": lambda: complete_bipartite(3, 5),
    "complete_bipartite(3, 5, seed=9)": (
        lambda: complete_bipartite(3, 5, seed=9)
    ),
    "torus(4, 5)": lambda: torus(4, 5),
    "torus(4, 5, seed=10)": lambda: torus(4, 5, seed=10),
    "hypercube(4)": lambda: hypercube(4),
    "hypercube(4, seed=11)": lambda: hypercube(4, seed=11),
    "random_bounded_degree(40, 5, seed=12)": (
        lambda: random_bounded_degree(40, 5, edge_probability=0.15, seed=12)
    ),
    # A degree-2 node's phase-2 step meets a degree-5 neighbour's
    # phase-1 step of the reversed pair: a peer link that is not the
    # partner row.
    "random_bounded_degree(24, 5, seed=2)": (
        lambda: random_bounded_degree(24, 5, edge_probability=0.2, seed=2)
    ),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for values in arrays:
        flat = np.ascontiguousarray(values, dtype=np.int64)
        h.update(len(flat).to_bytes(8, "little"))
        h.update(flat.astype("<i8", copy=False).tobytes())
    return h.hexdigest()


def _smallest_odd_at_least(delta: int) -> int:
    return max(delta, 1) | 1


def schedule_digests(graph) -> dict[str, str]:
    """sha256 of every precomputed Section 5 table of *graph*."""
    vg = graph.compiled().vector()
    dn_port, tag_k, tag_i, tag_j, tag_g = _label_tables(vg)[:5]
    order = np.lexsort((tag_g, tag_j, tag_i, tag_k))
    rows = (tag_k[order], tag_i[order], tag_j[order], tag_g[order])
    digests = {"labels": _digest(dn_port, *rows)}
    odd = _smallest_odd_at_least(int(vg.degrees.max()))
    for delta in (odd, odd + 2):
        phases, groups = _bounded_schedule(vg, delta)
        h = hashlib.sha256(repr(phases).encode())
        h.update(_digest(*groups).encode())
        digests[f"bounded({delta})"] = h.hexdigest()
    digests["regular_odd"] = _digest(*_regular_odd_schedule(vg))
    # Theorem 4's phase III queues, with every third node covered.
    delta = int(vg.degrees.max())
    kernel = VectorBoundedDegree(graph, delta, odd)
    kernel.m_cov[::3] = True
    kernel._start_h()
    digests["phase3"] = _digest(
        kernel.queue_flat, kernel.queue_end, kernel.cursor, kernel.proposers
    )
    return digests


#: Recorded on the sort-and-search construction these passes replaced;
#: ``phase3`` on the queues read off every port's two ends.
PINNED = {
    "pairing_regular(3, 200, seed=1)": {
        "labels": "f81b7d14c034c277cfdce93b3ba5e434799d4783585a4c31509e9c74a21df8ea",
        "bounded(3)": "2564fcf5d7a6a7557589443d4df8a9c01f4d52f8238d37188a858325e441ea29",
        "bounded(5)": "0f278a94ebd1a66afe4bc9fea4cfa84b36f02a08e01b690977624dec201646e6",
        "regular_odd": "8a758de3b579f85675831b754e598baffebd5a94097b0e92e08cd4ca1454fc60",
        "phase3": "bc8c0b338528b6b4015961dc3125301bedddbbde61c1c0caa47ab1d78747753a",
    },
    "pairing_regular(4, 256, seed=2)": {
        "labels": "414b8d550b525f273c8126b4d665e8cee05e7c6153a24c43c95e5901144dffad",
        "bounded(5)": "de40e729dbd6ea155b4ce5cc2fcccb53fe1f44af6c923b8587b25e522da5f209",
        "bounded(7)": "eecea9bdba818aa962d64b9a7191aed589c5127bb1eb47564bcf39880a7a3340",
        "regular_odd": "b24078b0f88a8947360e41648df2a7b5616c870fb67d82bfb7f6ad109804e466",
        "phase3": "031d5c8e4066683b7c7c512675a48ce86d7c3bad40ef1ae26767d9b4c762e171",
    },
    "pairing_regular(8, 120, seed=3)": {
        "labels": "758cdf7c0c272a06fd0fd1d8b8ffa926c9fda4b2922eb2727d15c6334c14d1fb",
        "bounded(9)": "92a5def95efaf9ff845fc39b858834435d6b1ecea8303196388103051bdeb929",
        "bounded(11)": "8659ec39383f83170dfb580a49e4715eee7c204e523885f0d54180793a720a81",
        "regular_odd": "447324f1f18d1e9fc02713cd9546190a769523637695b7dcb2b8420cc7f36900",
        "phase3": "f4eba0483faaf2b0fd26b9803d9ad098cce53ea6c87ccc3602e87b80fd5f32ef",
    },
    "random_regular(3, 60, seed=4)": {
        "labels": "2a273321828fdda5dd24d56c4aa6dadcf4c8c1deb767a3b8825fde4bcf86a092",
        "bounded(3)": "266e23219bf274d562eeefdc978efef644b13b29edd3ca19e6b825d476ad1c51",
        "bounded(5)": "26453a6bd8560c845c8511c7c4a555b7f2d1bd10a1bdf4424c865d17ece8acbe",
        "regular_odd": "c3f93254c379b924d8b577f647d872ee51f6539054797b5e2bdadee85e7bcbc3",
        "phase3": "2c49c04abf123d75bc1dce748b8848abb9d16529649e87e5486f83ec6bcda020",
    },
    "random_regular(5, 40, seed=5)": {
        "labels": "442717270c0bb2dd63e093bd47a5c4fb55fd4d01596327a5939f2f35feeb3136",
        "bounded(5)": "0fca1a544e33f7fec05aff7b1766dcd9b9ad0bf26d3a613791bb7937c3c03354",
        "bounded(7)": "3a88a2a725f5d9775fd8782c8f7437b2e870467242656908de79ea3fc053b9d3",
        "regular_odd": "3b5b5cd07373e91339dee529359591e6dd0b60d92c55f58256aa01ab30ef810f",
        "phase3": "aaa57bf2f3c5b494addcb6b2cffad9df40d095748cdaba0f73de3d287ad16e1d",
    },
    "grid(5, 7)": {
        "labels": "bea747979ab348905cbb405d27242b3043a02a6717cea7e3d029873975a09ed3",
        "bounded(5)": "1c75884cdae72a52005607bcb3cafb73a9bd755899cf0d41a329382d874484a7",
        "bounded(7)": "c33aecac405bef440fc759f38880bdcee9b7322585a1da2f0cfc52bd51045357",
        "regular_odd": "6bac083882f24eff5b716dcaa4a23b2c24392271f875ffb96411f501fd3cf06e",
        "phase3": "fa0e82a4535bb445ebad232d2e307567e0c8b0386e7ebfab97551e33e465755a",
    },
    "grid(5, 7, seed=6)": {
        "labels": "7477d5ec36e445bac12d422982e389008278675627d461239f2799ae4ed78831",
        "bounded(5)": "5f2688acaeafc13d50a6cf4562f971ea1184cc422bfee91aaafca455bd7b1b96",
        "bounded(7)": "bbcba42c54d893798ac02f8bbe3ffece017184b0c29398273de9cf5308aff544",
        "regular_odd": "be1352dea84df7c901ab80dcf9ca1c6088015f3029e9c84dec57a631355ab75f",
        "phase3": "e10308091ac5fe53f945df786660ab9ab18016205dab17e4b57f0abaed3e69b2",
    },
    "path(9)": {
        "labels": "ac703eecf08c948e685b798ae1de3b6fce51e23d39a32bde839ef286aad94c39",
        "bounded(3)": "72069e2e823eafa45327c8aab03a8a314a3128b38b7cb59d5a8a31c100fe1429",
        "bounded(5)": "7f62132918da912d6377417e2d637b82cbf50784850d35ef44c77faa6597fac9",
        "regular_odd": "875f04cacadf7d28737ccc173ed79d2751d353cd1fb8c7e154f8f58a66368b3f",
        "phase3": "d118028eaebc467a807afe1b09c4ea7363245dd49b0bdbfca3e544ce7d2d9c80",
    },
    "path(9, seed=7)": {
        "labels": "8d95170f181cdc46dbd3e56cc3564e5350f9d230988296c3a6b138dc26951ded",
        "bounded(3)": "ec915a381d8c80d56e43f19967903414967b5f1328ad34b47b28768b75edca3f",
        "bounded(5)": "3e81ee1f9252d5997e786ade0fa049d991d1b11a4cd4466ad2211666887331c4",
        "regular_odd": "cf1000ca8b8fc9fb7c12053029198429ff3abbce7746b4f731b07548067153fe",
        "phase3": "6e7cf53e8dc86eeecddd2b25f5fd57d46c0ff50754939078cd51007af8a3e82b",
    },
    "complete(6)": {
        "labels": "857b9f54c33d9f4afb95c0250686a661858774dad273a1a29c29e01790e1b546",
        "bounded(5)": "1b591d28c1d5b77e36b94e6e4a3e98b9742ef72c314681008ac1df6362bb54a2",
        "bounded(7)": "b831fc99ac420a939ddeaf86838fbe234a7e30d016fed8d5a67d5e2d5da60e14",
        "regular_odd": "3fd65509fadacbff4cb1aafd49d4cad46b5532b00aba202e88e4802040734ed1",
        "phase3": "1757467195a5e0f9c52b6d3ba0f2fb2ae67eb653a58277e42c4aa4b033d8d79d",
    },
    "complete(7, seed=8)": {
        "labels": "fb2359144e31313e9bd1c0328fc12b04afe3e728bf55950d0e3ad92b5f84aea3",
        "bounded(7)": "26f4be623e5cc862cc6964055f5de5137ac9d4e92552aad567666bf6e2f8cda3",
        "bounded(9)": "d7900538de3476f604cd0cb9093c94cb30985aad194023cab817ced9a0772fb9",
        "regular_odd": "9d44020bc51c8c43fe83e9f25e92200b02e08d43315bacc7320bdf4289128122",
        "phase3": "be0811a020da7e2d736e1d71ee3158fddc63ed40fb7558273c998b45014932cc",
    },
    "complete_bipartite(3, 5)": {
        "labels": "5d7c9ab703dc76c0009f49167116b6a01856868d3bc6570742c6214f6c30a837",
        "bounded(5)": "ab79464158402e726122bdc97e15cb96e3000111c0538a02a48c00c754340a72",
        "bounded(7)": "e972530a6e62e80bd91b4186c9593af29e536b2aecbcf2af04c1a3f36d1c1ba5",
        "regular_odd": "0344a1621a44f033ba6dbcd3100cb1ec23056b1583013e0228ed3507a5bc50f2",
        "phase3": "02ae4ae94d0c8859ba079d15054f246dbfa8f6707fe436c2558c80bcbac2d8c8",
    },
    "complete_bipartite(3, 5, seed=9)": {
        "labels": "913e7715eb1a3063b61005fa6fc2e6dfdf0fcb15364501aa6cf3a59d00bf8cd3",
        "bounded(5)": "a00a2e8a414c7e7a515f14ee8e8e39c89e1469fd85c9522e8108a03dcd7b7506",
        "bounded(7)": "0376e281cb53c7dfa2aedb58160a6fc6dab85a78e87dadb494822f67e5a78a92",
        "regular_odd": "d95ebbc6abed5cccbf7c77aab7477f65378e30c726772d26c75646477e8edec5",
        "phase3": "1387cb4a35bdbfe7811864d8e989d6b404574d8f0265b0008329920a9f2b96fd",
    },
    "torus(4, 5)": {
        "labels": "9cf38558ddbf18d4a5210791753e49a5a19536a4df1bd3635e36b339034c43e2",
        "bounded(5)": "7680b5e6d8b268104b19a49295f769c6f39bc0d2e990f0908fe747212cc6f869",
        "bounded(7)": "25c022f40a600f8ef926a3954b60ab881b3e6bfa8ebe8963572e3441ea64cdab",
        "regular_odd": "e0c5f77f94f05308fd0e35bb643bed9d9f1e5dac953c95dd9c94143c9879f5d3",
        "phase3": "7fa78afba4ab97ffb8b67052c66ac339eb1897cda333964abf12744166f6f628",
    },
    "torus(4, 5, seed=10)": {
        "labels": "8b39e113a492e944e842f3783b1e72cd41eaa3d6606caed6554cd6dd75ba64e0",
        "bounded(5)": "cf35751c92f67cb267845c3d970d96b843587a2bee593949344bebeb49e3679e",
        "bounded(7)": "bcb3e52f3bbf6ebb37c16bf925112dc1d5ba96a114a580682c019c948aa1323e",
        "regular_odd": "e180203c83b42f9af1fbe5f7f3ee01ce16a0c842666886252924800a439edf3c",
        "phase3": "7bc2519c6841ef73ab84f84755f1043a1225b02b067db8e3dbbb6a4b958e2324",
    },
    "hypercube(4)": {
        "labels": "b2742e2d3faba2520dd61787fc7b1e2db2b0c8078ef7db21880e3d112c8df8fe",
        "bounded(5)": "1b0584f9122ce4e1ee5fb93195839518fea415fc8f1037176a8b3cd4feefd499",
        "bounded(7)": "40f664affeba58568f5f7fb463662d907c75ff6300804046a71520929d987b9e",
        "regular_odd": "e48bd20ca46cb015311eae668d443632befc280199d080a4147e051ce7091ede",
        "phase3": "b5698f7d2c5011ea845feb294af0f3c6fbc703b55db5f3b2a800d4870107159c",
    },
    "hypercube(4, seed=11)": {
        "labels": "d6b4d55ca477b4fa435e8369435450bd547ac13edceecd69249f8b74bf208681",
        "bounded(5)": "fce563e32eed9b7d90deb9cb25520ca8f9ddf7732d98a5a4860dc8d1785b52ba",
        "bounded(7)": "39e4fa31d8cdaeadd15fe11cc568c390b1eadfcab68108f29891cf9d391858f4",
        "regular_odd": "ad2068e9ed9c722647e40ce0d0c871f4d1aa1b5a0405dcff597405539055f12e",
        "phase3": "4c50cb60e8f0a73c8329e7191b3fdc49eb7d4f3836969efd3a4d79b3002417a3",
    },
    "random_bounded_degree(40, 5, seed=12)": {
        "labels": "1cbbf6c4230c89206a3978dafccef44a71a9f01a165e60b49e42fdff4009d3db",
        "bounded(5)": "223a3f916e3ef697d54aa4503383f09ad2db22d538d9af860fefb483dbe6a8b0",
        "bounded(7)": "1cf7ef111e76cfbd8ead6212e5a2a05dac84f1004ab462ae7d8df59c65a166d5",
        "regular_odd": "d7bfba4dde24fbe7fafec819a49ff42879782fbc9448843681bc76c216980b5d",
        "phase3": "7728b797209deda7305b097932df0a4f57d3317b5ada1e6e82e7e00416ab72fa",
    },
    "random_bounded_degree(24, 5, seed=2)": {
        "labels": "febb09262e82892968c52ad0583eab47566c42e098e0f47108732dcbf103c776",
        "bounded(5)": "37ca061e55e92d0104c093eefeaca5062b357ebfb16c045d713c1fca7253046a",
        "bounded(7)": "6bab9cbae9d9e56893d43132776c452a0187bf0716cf8e8c700b2748f16ea38a",
        "regular_odd": "1bdec4f193b50784c89bb8f2fa61ccf48b3d19134a779c5c5417e04a0031e256",
        "phase3": "2c931ed71706f61d80a12d67aafb818c8230e262a840ffbb612881f667cbc734",
    },
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_schedule_bytes_pinned(name):
    assert schedule_digests(GRAPHS[name]()) == PINNED[name]


def test_pins_cover_every_graph():
    assert sorted(PINNED) == sorted(GRAPHS)


def test_lemma2_violation_raises_the_per_node_message(monkeypatch):
    """Correct labels never violate Lemma 2, so force two wrong
    distinguishable ports: ``v``'s own row (1, 2) on port 1 and ``w``'s
    peer row (1, 2) on ``v``'s port 2 tag two edges at ``v`` with one
    pair, which the per-node programs report in these words."""
    builder = PortGraphBuilder()
    builder.add_nodes({"u": 2, "v": 2, "w": 2})
    builder.connect("v", 1, "u", 2)
    builder.connect("v", 2, "w", 1)
    builder.connect("u", 1, "w", 2)
    cg = builder.build().compiled()
    vg = cg.vector()
    forced = np.array(
        [{"v": 1, "w": 1}.get(node, (1 << 63) - 1) for node in cg.nodes],
        dtype=np.int64,
    )
    monkeypatch.setattr(
        VectorGraph, "segment_min", lambda self, values, empty=0: forced
    )
    message = (
        "Lemma 2 violated: pair (1, 2) tags two incident edges "
        "(ports 1 and 2)"
    )
    with pytest.raises(SimulationError, match=re.escape(message)):
        _label_tables(vg)
