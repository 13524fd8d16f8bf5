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
cell share it.  The engine reaches it through
``optimum="dual_bound"``, and ``optimum="auto"`` escalates
exact → blossom → sandwich by instance size
(:data:`DUAL_BOUND_EDGE_LIMIT` is the blossom/sandwich frontier).
"""

from __future__ import annotations

from repro.bounds.dual import dual_bound, fractional_vertex_cover
from repro.bounds.exact import exact_bound, maximum_matching_mask
from repro.bounds.fractional import doubling_phases, solve_covering_lp
from repro.bounds.primal import primal_bound, primal_matching
from repro.bounds.result import (
    BoundResult,
    CoverCertificate,
    MatchingCertificate,
    SandwichCertificate,
    verify_certificate,
)
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
    "maximum_matching_mask",
    "nu_sandwich",
    "primal_bound",
    "primal_matching",
    "solve_covering_lp",
    "verify_certificate",
]

#: ``optimum="auto"`` escalation frontier: up to this many edges the
#: blossom lower bound stays under a few seconds per unit and ``auto``
#: keeps its historical exact → blossom behaviour (and its historical
#: cache keys); above it, auto switches to the ν sandwich.  Deliberately
#: a module constant rather than a :class:`~repro.engine.spec.JobSpec`
#: field — it tunes *how* auto resolves, not *what* a unit is, so
#: content addresses do not depend on it.
DUAL_BOUND_EDGE_LIMIT = 20_000


def nu_sandwich(
    graph: PortNumberedGraph, *, seed: int = 0
) -> BoundResult:
    """The two-sided bracket ``primal <= ν <= dual`` in near-linear time.

    The primal matching feeds the dual's matching-cover candidate, so
    the upper bound is always at least as tight as the classical
    ``2 |M|``; the certificate carries both halves for independent
    re-verification.

    The result is a function of ``(graph, seed)`` and is memoised on
    ``graph.compiled().memo`` with read-only arrays: the first call
    computes it under the ``optimum:primal`` and ``optimum:dual`` spans,
    later calls return it and count ``optimum.sandwich_shared``.
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
