"""Exact multiplicative-weights solver for covering LPs, as array doubling.

One update rule, two clients.  The LP is the pure covering program

    min Σ x_i   s.t.   Σ_{i ∈ C} x_i >= 1  for every constraint C,
                       0 <= x_i <= 1,

and the solver is the doubling schedule the ``lp_rounding`` baseline has
always run *distributedly* on the line graph: start every variable at a
promise-derived value, and in each phase double (capped at 1) every
variable that belongs to at least one violated constraint.  A violated
constraint contains its own variables, so after :func:`doubling_phases`
phases every constraint is satisfied, and the multiplicative schedule
keeps the objective within an ``O(log width)`` factor of the LP optimum.

The two clients:

* :class:`repro.baselines.lp_rounding.LPRoundingEDS` runs the rule by
  message passing — a variable per edge, a constraint per closed
  line-graph neighbourhood ``N[e]`` (an edge doubles exactly when a
  violated constraint is incident to either endpoint, which is the same
  membership test).  :func:`line_graph_covering_instance` materialises
  that instance so tests can prove the central and distributed solves
  agree variable-for-variable.
* :func:`repro.bounds.dual.fractional_vertex_cover` solves the vertex
  cover LP (a variable per node, a two-variable constraint per edge) to
  extract a certified dual upper bound on ν.

The values are exact: powers of two times the start value, capped at 1,
so they stay integer numerators over the start's denominator and every
phase is a handful of int64 array operations on a constraint matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import PortEdge

__all__ = [
    "doubling_phases",
    "line_graph_covering_instance",
    "solve_covering_lp",
]


def doubling_phases(delta: int) -> int:
    """Phases until ``x = 1/(2Δ)`` provably reaches 1: ``⌈log2(2Δ)⌉``."""
    return max(1, (2 * max(1, delta) - 1).bit_length())


def solve_covering_lp(
    num_vars: int,
    constraints: np.ndarray | Sequence[Sequence[int]],
    *,
    start: Fraction,
    phases: int,
) -> np.ndarray:
    """Run the doubling schedule; returns the final values as int64
    numerators over ``start.denominator``.

    *constraints* is an ``(m, w)`` integer array with one row of
    variable indices per constraint, or a ragged sequence of index
    sequences (padded to a matrix with a sentinel variable pinned at 0).
    The loop is phase-synchronous, exactly like the distributed client:
    *all* violations of a phase are computed against the same values
    before any variable doubles.  Phases with no violated constraint
    change nothing, so stopping early is value-identical to running all
    ``phases`` — the distributed client always runs the full schedule
    for its closed-form round count.
    """
    den = start.denominator
    rows = _constraint_matrix(num_vars, constraints)
    # Index ``num_vars`` is the padding sentinel: it starts at 0 and is
    # never doubled, so it adds nothing to any constraint sum.
    x = np.full(num_vars + 1, start.numerator, dtype=np.int64)
    x[num_vars] = 0
    for _ in range(phases):
        violated = x[rows].sum(axis=1) < den
        if not violated.any():
            break
        doubled = np.zeros(num_vars + 1, dtype=bool)
        doubled[rows[violated]] = True
        doubled[num_vars] = False
        x[doubled] = np.minimum(den, 2 * x[doubled])
    return x[:num_vars]


def _constraint_matrix(
    num_vars: int, constraints: np.ndarray | Sequence[Sequence[int]]
) -> np.ndarray:
    if isinstance(constraints, np.ndarray):
        return constraints.astype(np.int64, copy=False)
    width = max((len(c) for c in constraints), default=0)
    rows = np.full((len(constraints), width), num_vars, dtype=np.int64)
    for r, members in enumerate(constraints):
        rows[r, :len(members)] = members
    return rows


def line_graph_covering_instance(
    graph: PortNumberedGraph,
) -> tuple[tuple[PortEdge, ...], list[list[int]]]:
    """The fractional-EDS covering LP: dominating set on ``L(G)``.

    Returns the variable order (the graph's canonical edge order) and
    one constraint per edge ``e``: the indices of ``N[e]`` — ``e`` plus
    every edge sharing an endpoint with it.  This is the instance the
    ``lp_rounding`` baseline solves by message passing.
    """
    graph.require_simple()
    edges = graph.edges
    index = {e: i for i, e in enumerate(edges)}
    constraints: list[list[int]] = []
    for e in edges:
        members = {index[e]}
        for endpoint in (e.u, e.v):
            for incident in graph.edges_at(endpoint):
                members.add(index[incident])
        constraints.append(sorted(members))
    return edges, constraints
