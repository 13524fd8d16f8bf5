"""Primal engine: a fast feasible matching certifying ``ν >= |M|``.

Randomized greedy maximal matching, optionally improved by a
bounded-depth augmenting search, both over the compiled CSR arrays.

The greedy is the sequential one — scan the edges in a seeded random
priority order, keep an edge when both endpoints are still free — run
as rounds of *locally-minimal* edges: every round keeps each remaining
edge whose priority is the smallest at both of its endpoints, then drops
the edges those endpoints touch.  An edge that is minimal among its
remaining neighbours is exactly one the sequential scan keeps, so the
rounds return the sequential matching edge for edge (Blelloch–Fineman–
Shun, SPAA 2012), in a logarithmic number of whole-array rounds.

The augmenting search then runs from the free vertices only: every pass
scans them in node order and augments along the first short augmenting
path it finds (an alternating path between two free vertices), growing
the matching by one edge per path.  Depth-bounded search without
blossom contraction can miss augmenting paths that cross odd cycles —
that only costs tightness, never soundness: whatever the search returns
is a genuine matching, and augmenting preserves maximality because the
matched vertex set only ever grows.

The greedy alone is the upper side of every EDS bracket
(:func:`greedy_witness`): a maximal matching *is* a feasible edge
dominating set, so ``|M|`` upper-bounds the EDS optimum while
lower-bounding ν.  Augmenting only grows ``|M|``, which tightens the ν
side and loosens the EDS side, so the augmented matching
(:func:`primal_matching`) serves the ν sandwich alone and starts from
the same memoised greedy.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.bounds.result import BoundResult, MatchingCertificate
from repro.obs.spans import current_recorder, span
from repro.portgraph.graph import PortNumberedGraph

__all__ = [
    "edge_priority",
    "greedy_matching",
    "greedy_witness",
    "primal_matching",
]

#: Alternating-search depth: the number of *matched* edges a path may
#: cross.  Depth 3 (paths of length <= 7) captures nearly all of the
#: augmenting mass on the sweep families at a per-pass cost linear in
#: the graph size.
DEFAULT_MAX_DEPTH = 3

#: Improvement passes over the free vertices.  A pass that augments
#: nothing ends the search early, so this is a ceiling, not a budget
#: that must be spent.
DEFAULT_PASSES = 4


def lead_ports(vg) -> np.ndarray:
    """One port per edge (``g < mate[g]``) of a loop-free graph."""
    return np.flatnonzero(vg.mate > vg.all_ports)


def edge_priority(vg, seed: int) -> np.ndarray:
    """Per-port greedy priority: a seeded permutation of the edges,
    written to both ports of each edge."""
    lead = lead_ports(vg)
    rank = np.random.default_rng(seed).permutation(lead.size)
    priority = np.empty(vg.num_ports, dtype=np.int64)
    priority[lead] = rank
    priority[vg.mate[lead]] = rank
    return priority


def greedy_matching(vg, priority: np.ndarray) -> np.ndarray:
    """Sequential greedy in *priority* order, as locally-minimal rounds.

    *priority* holds one value per port, equal at both ports of an edge
    and distinct across edges.  Returns the matching as a bool port
    mask.
    """
    owner, peer, mate = vg.port_node, vg.peer_node, vg.mate
    selected = np.zeros(vg.num_ports, dtype=bool)
    matched = np.zeros(vg.num_nodes, dtype=bool)
    minimal = np.zeros(vg.num_ports, dtype=bool)
    # The live ports, ascending: each node's ports stay one contiguous
    # run, so per-node minima are a single reduceat.
    ports = vg.all_ports
    while ports.size:
        own = owner[ports]
        rank = priority[ports]
        starts = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])
        lows = np.minimum.reduceat(rank, starts)
        is_min = rank == np.repeat(lows, np.diff(np.r_[starts, ports.size]))
        minimal[ports] = is_min
        chosen = ports[is_min & minimal[mate[ports]]]
        minimal[ports] = False
        selected[chosen] = True
        matched[owner[chosen]] = True
        ports = ports[~matched[own] & ~matched[peer[ports]]]
    return selected


def _search(
    u: int, depth: int, offsets, peer, mp, visited
) -> list[int] | None:
    """The unmatched ports of an augmenting path from *u*, or ``None``.

    A module function, not a closure over :func:`_augment`'s tables: a
    recursive closure refers to itself through its own cell, and that
    cycle would keep the tables alive until the cyclic collector ran.
    """
    for g in range(offsets[u], offsets[u + 1]):
        v = peer[g]
        if visited[v]:
            continue
        matched_port = mp[v]
        if matched_port < 0:
            visited[v] = 1
            return [g]
        if depth >= DEFAULT_MAX_DEPTH:
            continue
        w = peer[matched_port]
        if visited[w]:
            continue
        visited[v] = visited[w] = 1
        tail = _search(w, depth + 1, offsets, peer, mp, visited)
        if tail is not None:
            tail.append(g)
            return tail
    return None


def _augment(cg, selected: np.ndarray) -> np.ndarray:
    """Depth-bounded augmenting passes from the free vertices.

    Returns a new mask; *selected* is only read.  The search walks the
    compiled ``array('q')`` tables plus an ``array('q')`` copy of
    ``peer_node``: ``mp[v]`` is the port at ``v`` of its matched edge,
    or -1.  *visited* is shared across one pass (vertices are never
    unmarked), which keeps the pass linear and the found paths pairwise
    vertex-disjoint.
    """
    vg = cg.vector()
    offsets, mate, owner = cg.offsets, cg.mate, cg.port_node
    peer = array("q", vg.peer_node.tobytes())
    mp_np = np.full(vg.num_nodes, -1, dtype=np.int64)
    ports = np.flatnonzero(selected)
    mp_np[vg.port_node[ports]] = ports
    mp = array("q", mp_np.tobytes())
    free = np.flatnonzero((mp_np < 0) & (vg.degrees > 0)).tolist()

    for _ in range(DEFAULT_PASSES):
        visited = bytearray(vg.num_nodes)
        augmented = False
        for root in free:
            if mp[root] >= 0 or visited[root]:
                continue
            visited[root] = 1
            path = _search(root, 0, offsets, peer, mp, visited)
            if path is None:
                continue
            # Every vertex on the path gets one of the path's unmatched
            # edges; the matched edges between them drop out.
            for g in path:
                h = mate[g]
                mp[owner[g]] = g
                mp[owner[h]] = h
            augmented = True
        if not augmented:
            break
        free = [v for v in free if mp[v] < 0]

    mp_np = np.frombuffer(mp, dtype=np.int64)
    result = np.zeros(vg.num_ports, dtype=bool)
    result[mp_np[mp_np >= 0]] = True
    return result


def _maximal_matching_bound(selected: np.ndarray) -> BoundResult:
    """``|M| <= ν <= 2|M|`` for a maximal matching given as a port mask."""
    certificate = MatchingCertificate(selected=selected, maximal=True)
    size = certificate.size
    return BoundResult(
        lower=size, upper=2 * size, certificate=certificate,
        exact=(size == 0),
    )


def greedy_witness(graph: PortNumberedGraph, *, seed: int = 0) -> BoundResult:
    """The greedy maximal matching in a seeded random order, not
    augmented, as the bracket ``|M| <= ν <= 2|M|``.

    ``M`` is a feasible EDS, so ``|M|`` is the upper side of the EDS
    bracket.  The result is a function of ``(graph, seed)`` and is
    memoised on ``graph.compiled().memo`` with a read-only mask: the
    first call computes it under the ``optimum:witness`` span and counts
    ``optimum.witness``; later calls (the cell's other units, and
    :func:`primal_matching`, which augments it) return it.
    """
    graph.require_simple()
    cg = graph.compiled()
    key = ("greedy_witness", seed)
    result = cg.memo.get(key)
    if result is None:
        vg = cg.vector()
        with span("optimum:witness"):
            selected = greedy_matching(vg, edge_priority(vg, seed))
        selected.flags.writeable = False
        result = _maximal_matching_bound(selected)
        cg.memo[key] = result
        recorder = current_recorder()
        if recorder is not None:
            recorder.count("optimum.witness")
    return result


def primal_matching(graph: PortNumberedGraph, *, seed: int = 0) -> np.ndarray:
    """A maximal matching as a bool port mask over ``graph.compiled()``:
    :func:`greedy_witness`'s matching, augmented.

    Deterministic for a given ``(graph, seed)`` — the order comes from
    ``np.random.default_rng(seed)`` over the canonical edge order and
    every later scan follows node order.
    """
    greedy = greedy_witness(graph, seed=seed).certificate.selected
    return _augment(graph.compiled(), greedy)
