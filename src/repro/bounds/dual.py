"""Dual engine: a certified upper bound on ν from a fractional cover.

Weak LP duality for matchings: if ``y`` is a feasible fractional vertex
cover (``y_u + y_v >= 1`` on every edge, ``y >= 0``) then every matching
charges at least 1 of cover mass per edge to distinct vertices, so
``ν <= Σy`` — and since ν is an integer, ``ν <= ⌊Σy⌋``.  The bound is
*certified*: the cover itself is returned and
:func:`repro.bounds.result.verify_certificate` re-checks feasibility on
every edge in exact arithmetic.

Two candidate covers are built and the smaller objective wins:

* the multiplicative-weights solve of the vertex cover LP via the
  shared :func:`repro.bounds.fractional.solve_covering_lp` loop
  (constraint width 2, so two phases from ``y = 1/4``); on
  edge-transitive instances this lands on the canonical uniform-half
  cover ``Σy = n'/2`` over non-isolated vertices;
* the *matching cover* derived from a maximal matching ``M``: ``y = 1/2``
  on matched vertices, raised to 1 on matched vertices that see an
  unmatched neighbour.  Feasible because ``M`` is maximal (no edge has
  two unmatched endpoints), with objective ``|M| + k/2 <= 2|M|`` where
  ``k`` counts the raised vertices — never worse than the classical
  ``ν <= 2|M|``, and much tighter when most of the graph is matched.

Both are array arithmetic over ``graph.compiled().vector()``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.bounds.fractional import solve_covering_lp
from repro.bounds.primal import lead_ports
from repro.bounds.result import CoverCertificate
from repro.exceptions import CertificateError
from repro.portgraph.graph import PortNumberedGraph

__all__ = ["fractional_vertex_cover", "matching_cover"]

#: The MW start value: width-2 constraints reach 1 in two doublings.
_MW_START = Fraction(1, 4)


def _mw_cover(vg) -> CoverCertificate:
    """The MW solve of the vertex cover LP (width-2 constraints)."""
    lead = lead_ports(vg)
    constraints = np.stack((vg.port_node[lead], vg.peer_node[lead]), axis=1)
    numerators = solve_covering_lp(
        vg.num_nodes, constraints, start=_MW_START, phases=2
    )
    # Isolated vertices sit in no constraint: they need no cover mass.
    numerators[vg.degrees == 0] = 0
    return CoverCertificate(numerators, _MW_START.denominator)


def matching_cover(
    graph: PortNumberedGraph, matching: np.ndarray
) -> CoverCertificate:
    """The cover induced by a *maximal* matching, given as a bool port
    mask (see module docstring); numerators over 2."""
    vg = graph.compiled().vector()
    matched = np.zeros(vg.num_nodes, dtype=bool)
    matched[vg.port_node[matching]] = True
    near = matched[vg.port_node]
    far = matched[vg.peer_node]
    uncovered = ~near & ~far
    if uncovered.any():
        v, i = graph.compiled().port(int(np.argmax(uncovered)))
        raise CertificateError(
            f"matching is not maximal: the edge at port {i} of {v!r} "
            "is uncovered"
        )
    numerators = matched.astype(np.int64)
    numerators[vg.port_node[near & ~far]] = 2
    return CoverCertificate(numerators, 2)


def fractional_vertex_cover(
    graph: PortNumberedGraph,
    matching: np.ndarray | None = None,
) -> CoverCertificate:
    """The better of the two candidate covers (smaller ``⌊Σy⌋``; the
    matching cover wins ties — its values are the sparser set)."""
    graph.require_simple()
    candidates = [_mw_cover(graph.compiled().vector())]
    if matching is not None:
        candidates.append(matching_cover(graph, matching))
    return min(reversed(candidates), key=lambda c: c.bound)
