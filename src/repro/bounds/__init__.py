"""Certified bounds on the maximum matching size ν (and hence on the
EDS optimum) at every scale.

Three engines behind one :class:`~repro.bounds.result.BoundResult`
protocol:

* :mod:`~repro.bounds.primal` — randomized greedy maximal matching (as
  rounds of locally-minimal edges) plus bounded-depth augmenting search:
  ``|M| <= ν``, seconds at n = 2^20;
* :mod:`~repro.bounds.dual` — a feasible fractional vertex cover from
  the shared multiplicative-weights loop: ``ν <= ⌊Σy⌋`` by weak LP
  duality, verified on every edge in exact integer arithmetic;
* :mod:`~repro.bounds.exact` — the blossom matching (memoised), the
  zero-width bracket for sizes where minutes per unit are acceptable.

:func:`nu_sandwich` combines the first two into the bracket
``primal <= ν <= dual`` that restores honest ratio *intervals* to the
``xlarge-regular`` scale, where the blossom bound alone was profiled at
~172 s/unit (E20).  Certificates are arrays over the compiled graph
(a port mask, integer numerators over one denominator), and the
bracket is memoised on the compiled graph per seed, so the units of one
cell share it.

The engine's EDS bracket takes each side from the part that can bind.
Its upper side is :func:`greedy_witness`, the un-augmented greedy
maximal matching (a feasible EDS, so augmenting would only loosen it).
Its lower side is ``max(⌈ν/2⌉, ⌈m/(2Δ−1)⌉)``, and the sandwich's
``ν >= |M|`` runs only where :func:`nu_can_bind` says ν can set it —
never on a regular graph.  The engine reaches this through
``optimum="dual_bound"``, and ``optimum="auto"`` escalates
exact → blossom → bracket by instance size
(:data:`DUAL_BOUND_EDGE_LIMIT` is the blossom/bracket frontier).
"""

from __future__ import annotations

import numpy as np

from repro.bounds.dual import dual_bound, fractional_vertex_cover
from repro.bounds.exact import exact_bound, maximum_matching_mask
from repro.bounds.fractional import doubling_phases, solve_covering_lp
from repro.bounds.primal import greedy_witness, primal_bound, primal_matching
from repro.bounds.result import (
    BoundResult,
    CoverCertificate,
    MatchingCertificate,
    SandwichCertificate,
    verify_certificate,
)
from repro.eds.bounds import eds_lower_bound_from_nu
from repro.obs.spans import current_recorder, span
from repro.portgraph.graph import PortNumberedGraph

__all__ = [
    "BoundResult",
    "CoverCertificate",
    "DUAL_BOUND_EDGE_LIMIT",
    "MatchingCertificate",
    "SandwichCertificate",
    "doubling_phases",
    "dual_bound",
    "exact_bound",
    "fractional_vertex_cover",
    "greedy_witness",
    "maximum_matching_mask",
    "nu_can_bind",
    "nu_sandwich",
    "primal_bound",
    "primal_matching",
    "solve_covering_lp",
    "verify_certificate",
]

#: ``optimum="auto"`` escalation frontier: up to this many edges the
#: blossom lower bound stays under a few seconds per unit and ``auto``
#: keeps its historical exact → blossom behaviour (and its historical
#: cache keys); above it, auto switches to the certified bracket.
#: Deliberately a module constant rather than a
#: :class:`~repro.engine.spec.JobSpec` field — it tunes *how* auto
#: resolves, not *what* a unit is, so content addresses do not depend
#: on it.
DUAL_BOUND_EDGE_LIMIT = 20_000


def nu_can_bind(graph: PortNumberedGraph) -> bool:
    """Whether ν can raise the EDS lower bound above ``⌈m/(2Δ−1)⌉``.

    The bound is ``max(⌈ν/2⌉, ⌈m/(2Δ−1)⌉)``, and ``ν <= ⌊n′/2⌋`` for
    the ``n′`` non-isolated nodes.  When even that largest ν leaves the
    bound at ``⌈m/(2Δ−1)⌉`` no ν needs computing.  On a d-regular graph
    ``m/(2d−1) = nd/(4d−2) > n/4``, so this is always ``False`` there.
    """
    m, delta = graph.num_edges, graph.max_degree
    nonisolated = int(np.count_nonzero(graph.compiled().vector().degrees))
    return eds_lower_bound_from_nu(
        nonisolated // 2, m, delta
    ) > eds_lower_bound_from_nu(0, m, delta)


def nu_sandwich(
    graph: PortNumberedGraph, *, seed: int = 0
) -> BoundResult:
    """The two-sided bracket ``primal <= ν <= dual`` in near-linear time.

    The primal matching (:func:`greedy_witness`'s matching, augmented)
    feeds the dual's matching-cover candidate, so the upper bound is
    always at least as tight as the classical ``2 |M|``; the
    certificate carries both halves for independent re-verification.

    The result is a function of ``(graph, seed)`` and is memoised on
    ``graph.compiled().memo`` with read-only arrays: the first call
    computes it under the ``optimum:primal`` (the augmenting search)
    and ``optimum:dual`` spans, later calls return it and count
    ``optimum.sandwich_shared``.
    """
    graph.require_simple()
    memo = graph.compiled().memo
    key = ("nu_sandwich", seed)
    try:
        result = memo[key]
    except KeyError:
        pass
    else:
        recorder = current_recorder()
        if recorder is not None:
            recorder.count("optimum.sandwich_shared")
        return result
    with span("optimum:primal"):
        matching = primal_matching(graph, seed=seed)
    with span("optimum:dual"):
        cover = fractional_vertex_cover(graph, matching)
    matching.flags.writeable = False
    cover.numerators.flags.writeable = False
    certificate = SandwichCertificate(
        matching=MatchingCertificate(selected=matching, maximal=True),
        cover=cover,
    )
    lower = certificate.matching.size
    upper = min(cover.bound, 2 * lower)
    result = BoundResult(
        lower=lower, upper=upper, certificate=certificate,
        exact=(lower == upper),
    )
    memo[key] = result
    return result
