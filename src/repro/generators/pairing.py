"""Streaming pairing-model d-regular graphs, straight into CSR arrays.

The ``regular`` family draws the edges networkx's Steger–Wormald
sampler draws (replayed in arrays since E30), so it pays one Python
shuffle draw per stub for every pairing round and every restart, plus
one numbering shuffle per node.  This module generates a random
d-regular graph by the configuration (pairing) model in ``O(nd)``:
throw ``n·d`` stubs into a uniformly random perfect pairing, then repair
the handful of self-loops and parallel edges by degree-preserving edge
switches instead of resampling the whole pairing.

The stub layout *is* the port numbering — stub ``i`` of node ``u`` is
port ``i + 1`` attached at global index ``u·d + i`` — so the pairing is
already the compiled ``mate`` array and goes straight to
:meth:`~repro.portgraph.graph.PortNumberedGraph.from_arrays` (numeric
node order; no repr re-sorting, no dicts).

Determinism contract: the pairing is the order that one
``random.Random(seed).shuffle`` of the stub indices leaves, replayed in
arrays by :func:`~repro.generators.shuffle.shuffled_range`, which also
leaves the stream where that ``shuffle`` would; bad-edge detection has
one canonical order, and the switch-repair draws from the same
``Random`` stream — so the graph is a pure function of ``(d, n, seed)``.
Cache keys name the spec, not the graph, so the output bytes are pinned
per ``(d, n, seed)`` by ``tests/test_pairing_regular.py``.

Caveat: switch-repair conditions the pairing on simplicity, so the
distribution is the configuration model conditioned on simple outcomes
(asymptotically uniform over d-regular graphs for fixed d) — not the
distribution of ``nx.random_regular_graph``.  The ``regular`` family
keeps networkx's graphs for anyone who needs those.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np

from repro.exceptions import ConstructionError
from repro.generators.direct import _q
from repro.generators.shuffle import shuffled_range
from repro.portgraph.graph import PortNumberedGraph

__all__ = ["pairing_regular"]

#: Random switch candidates tried per bad edge before the whole pairing
#: is redrawn; exhausted only on tiny dense instances (e.g. forced K_n).
_MAX_DRAWS = 2000
#: Full redraws before giving up entirely.
_MAX_RESTARTS = 20


class _RepairExhausted(Exception):
    pass


def _find_bad(mate, n: int, d: int) -> list[int]:
    """Bad edge representatives, canonically ordered.

    An edge is represented by its smaller stub.  It is bad when it is a
    self-loop, or when it repeats the endpoint pair of an edge with a
    smaller representative.
    """
    arange = np.arange(n * d, dtype=np.int64)
    reps = np.nonzero(mate > arange)[0]
    u = reps // d
    v = mate[reps] // d
    lo = np.minimum(u, v)
    key = lo * n + (u + v - lo)
    # reps ascend, so a stable sort keeps each key's reps in order.
    order = np.argsort(key, kind="stable")
    keys = key[order]
    dup = np.zeros(len(order), dtype=bool)
    dup[1:] = keys[1:] == keys[:-1]
    # A repeated loop is bad twice over.  Sort and an adjacent compare,
    # not np.union1d: numpy 2.x's np.unique imports numpy.ma (14 ms).
    bad = np.sort(np.concatenate((reps[u == v], reps[order[dup]])))
    first = np.ones(len(bad), dtype=bool)
    first[1:] = bad[1:] != bad[:-1]
    return bad[first].tolist()


def _still_bad(mate, d: int, g: int, h: int) -> bool:
    """Re-verify a queued representative against the current pairing."""
    u, v = g // d, h // d
    if u == v:
        return True
    rep = g if g < h else h
    for s in range(u * d, u * d + d):
        if s == g or s == h:
            continue
        m = int(mate[s])
        if m // d == v and (s if s < m else m) < rep:
            return True
    return False


def _switch_ok(mate, d: int, g: int, h: int, k: int, l: int) -> bool:
    """Would re-pairing (g,h),(k,l) → (g,k),(h,l) keep the graph simple?"""
    u1, v1 = g // d, k // d
    u2, v2 = h // d, l // d
    if u1 == v1 or u2 == v2:
        return False
    if (u1 == u2 and v1 == v2) or (u1 == v2 and v1 == u2):
        return False
    replaced = (g, h, k, l)
    for s in range(u1 * d, u1 * d + d):
        if s not in replaced and int(mate[s]) // d == v1:
            return False
    for s in range(u2 * d, u2 * d + d):
        if s not in replaced and int(mate[s]) // d == v2:
            return False
    return True


def _repair(mate, n: int, d: int, rng: random.Random, bad: list[int]) -> None:
    """Switch every bad edge away, deterministically, in place.

    Each successful switch removes one bad edge and creates two
    validated-simple edges, so the queue shrinks monotonically; edges
    fixed as a side effect are skipped by re-verification.
    """
    total = n * d
    queue = deque(bad)
    while queue:
        g = int(queue.popleft())
        h = int(mate[g])
        if not _still_bad(mate, d, g, h):
            continue
        for _ in range(_MAX_DRAWS):
            k = rng.randrange(total)
            if k in (g, h):
                continue
            l = int(mate[k])
            if l in (g, h):
                continue
            if _switch_ok(mate, d, g, h, k, l):
                mate[g], mate[k] = k, g
                mate[h], mate[l] = l, h
                break
        else:
            raise _RepairExhausted


def pairing_regular(d: int, n: int, *, seed: int = 0) -> PortNumberedGraph:
    """A random simple d-regular graph on nodes ``0..n-1`` in O(nd)."""
    if d < 1 or n <= d or (n * d) % 2:
        raise ConstructionError(
            f"no simple d-regular graph with d={d}, n={n} "
            "(need d >= 1, n > d, n*d even)"
        )
    total = n * d
    rng = random.Random(seed)
    for _ in range(_MAX_RESTARTS):
        perm = shuffled_range(rng, total)
        mate = np.empty(total, dtype=np.int64)
        mate[perm[0::2]] = perm[1::2]
        mate[perm[1::2]] = perm[0::2]
        bad = _find_bad(mate, n, d)
        try:
            _repair(mate, n, d, rng, bad)
            break
        except _RepairExhausted:
            continue
    else:
        raise ConstructionError(
            f"pairing repair failed for d={d}, n={n}, seed={seed} after "
            f"{_MAX_RESTARTS} redraws"
        )

    offsets = np.arange(total + d, step=d, dtype=np.int64)
    port_node = np.arange(total, dtype=np.int64) // d
    return PortNumberedGraph.from_arrays(
        range(n), (d,) * n, _q(offsets), _q(mate), _q(port_node),
        validate=False,
    )
