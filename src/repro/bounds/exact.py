"""Exact engine: the blossom maximum matching as a zero-width bracket.

Wraps :func:`repro.eds.bounds.maximum_matching_size` (networkx blossom,
memoised per compiled graph) in the :class:`~repro.bounds.result.
BoundResult` protocol.  The matching itself is recovered from the same
memo as a port mask over the compiled graph, so even the exact engine
ships a certificate: the maximum matching is in particular maximal,
proving ``ν >= |M|`` and ``ν <= 2|M|`` independently of networkx (the
zero-width claim ``upper == lower`` itself rests on blossom's
correctness, which is why :class:`BoundResult.exact` is a separate flag
from the certified bracket).
"""

from __future__ import annotations

import numpy as np

from repro.bounds.result import BoundResult, MatchingCertificate
from repro.eds.bounds import maximum_matching_nodes, maximum_matching_size
from repro.portgraph.graph import PortNumberedGraph

__all__ = ["exact_bound", "maximum_matching_mask"]


def maximum_matching_mask(graph: PortNumberedGraph) -> np.ndarray:
    """A maximum matching as a bool port mask, read off the memoised
    blossom run."""
    graph.require_simple()
    cg = graph.compiled()
    vg = cg.vector()
    n = vg.num_nodes
    index = cg.node_index
    pairs = np.array(
        [[index[v] for v in pair] for pair in maximum_matching_nodes(graph)],
        dtype=np.int64,
    ).reshape(-1, 2)
    # A simple graph has one port per (owner, neighbour) pair.
    keys = vg.port_node * n + vg.peer_node
    order = np.argsort(keys, kind="stable")
    found = order[np.searchsorted(keys[order], pairs[:, 0] * n + pairs[:, 1])]
    selected = np.zeros(vg.num_ports, dtype=bool)
    selected[found] = True
    selected[vg.mate[found]] = True
    return selected


def exact_bound(graph: PortNumberedGraph) -> BoundResult:
    """ν(G) exactly, certificate included: ``lower == upper == ν``."""
    nu = maximum_matching_size(graph)
    certificate = MatchingCertificate(
        selected=maximum_matching_mask(graph), maximal=True
    )
    return BoundResult(
        lower=nu, upper=nu, certificate=certificate, exact=True
    )
