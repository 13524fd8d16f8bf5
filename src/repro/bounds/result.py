"""The certified-bounds protocol: :class:`BoundResult` + certificates.

Every bounds engine — primal (:mod:`repro.bounds.primal`), dual
(:mod:`repro.bounds.dual`), exact (:mod:`repro.bounds.exact`) — returns
the same shape: a :class:`BoundResult` bracketing the maximum matching
size ``ν(G)`` with ``lower <= ν <= upper`` and carrying the evidence as
a *certificate*.  The certificates are self-contained mathematical
objects, not solver state, and they are arrays over the graph's compiled
form (:meth:`~repro.portgraph.graph.PortNumberedGraph.compiled`):

* :class:`MatchingCertificate` — a boolean mask over global ports (the
  ``RunResult.selected`` idiom: an edge is selected when both of its
  ports are); any valid matching proves ``ν >= |M|``, and a *maximal*
  one additionally proves ``ν <= 2|M|`` (every edge of an optimum
  matching touches ``M``) and that ``M`` itself is a feasible EDS.
* :class:`CoverCertificate` — a fractional vertex cover ``y`` as int64
  numerators per node index over one denominator; weak LP duality gives
  ``ν <= Σy``, and since ``ν`` is an integer, ``ν <= ⌊Σy⌋``.
* :class:`SandwichCertificate` — both at once, the output of
  :func:`repro.bounds.nu_sandwich`.

:func:`verify_certificate` re-derives the claimed bounds from the
certificate alone in exact integer arithmetic — int64 array operations
behind an explicit overflow guard that falls back to Python ints, never
floats, and no trust in the engine that produced the result.  A bound
that passes is *proven* for the given graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from repro.exceptions import CertificateError
from repro.portgraph.graph import PortNumberedGraph

__all__ = [
    "BoundResult",
    "CoverCertificate",
    "MatchingCertificate",
    "SandwichCertificate",
    "verify_certificate",
]

_INT64_MAX = int(np.iinfo(np.int64).max)

#: Overflow guard of the feasibility check: two numerators at or below
#: this value add without leaving int64.
_PAIR_SAFE = _INT64_MAX // 2


def _require_exact(numerators: np.ndarray, denominator: int) -> None:
    """Integer numerators over a positive integer denominator, or raise."""
    dtype = getattr(numerators, "dtype", np.dtype(object))
    if not (
        np.issubdtype(dtype, np.integer)
        and isinstance(denominator, (int, np.integer))
    ):
        raise CertificateError(
            f"cover values are {dtype} over a "
            f"{type(denominator).__name__} denominator, not exact arithmetic"
        )
    if denominator <= 0:
        raise CertificateError(
            f"cover denominator must be positive, got {denominator}"
        )


def _exact_sum(values: np.ndarray) -> int:
    """``Σ values`` as a Python int: int64 while it provably cannot
    overflow, Python ints otherwise."""
    if not values.size:
        return 0
    peak = max(abs(int(values.max())), abs(int(values.min())))
    if peak <= _INT64_MAX // values.size:
        return int(values.sum(dtype=np.int64))
    return sum(values.tolist())


@dataclass(frozen=True, eq=False)
class MatchingCertificate:
    """A matching ``M`` in the host graph; proves ``ν >= |M|``.

    ``selected`` is a bool mask over the global ports of
    ``graph.compiled()``; a valid certificate is closed under ``mate``,
    so ``|M|`` is half its popcount.  With ``maximal=True`` the
    certificate additionally claims no edge of the graph has both
    endpoints unmatched, which proves ``ν <= 2|M|`` and makes ``M`` a
    feasible edge dominating set.
    """

    selected: np.ndarray
    maximal: bool = False

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.selected)) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingCertificate):
            return NotImplemented
        return self.maximal == other.maximal and bool(
            np.array_equal(self.selected, other.selected)
        )


@dataclass(frozen=True, eq=False)
class CoverCertificate:
    """A fractional vertex cover ``y``; proves ``ν <= ⌊Σy⌋``.

    ``y[k] = numerators[k] / denominator`` for node index ``k`` of
    ``graph.compiled()``.  Feasibility means ``y_u + y_v >= 1`` for
    every edge ``{u, v}``.
    """

    numerators: np.ndarray
    denominator: int

    @cached_property
    def bound(self) -> int:
        """``⌊Σy⌋`` — the certified integer upper bound on ν (computed
        on first read, then cached)."""
        _require_exact(self.numerators, self.denominator)
        return _exact_sum(self.numerators) // int(self.denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverCertificate):
            return NotImplemented
        return self.denominator == other.denominator and bool(
            np.array_equal(self.numerators, other.numerators)
        )


@dataclass(frozen=True)
class SandwichCertificate:
    """Primal matching and dual cover together: a two-sided ν bracket."""

    matching: MatchingCertificate
    cover: CoverCertificate


Certificate = Union[MatchingCertificate, CoverCertificate,
                    SandwichCertificate]


@dataclass(frozen=True)
class BoundResult:
    """The common return shape of every bounds engine.

    ``lower <= ν(G) <= upper``; ``exact`` means the two coincide *and*
    the value is known to be ν (not merely a zero-width accident).  The
    certificate, when present, lets :func:`verify_certificate` re-prove
    both bounds independently of the engine.
    """

    lower: int
    upper: int
    certificate: Certificate | None
    exact: bool

    @property
    def gap(self) -> int:
        """``upper - lower`` — the width of the ν bracket."""
        return self.upper - self.lower


def _edge_name(cg, g: int) -> str:
    (u, i), (v, j) = cg.port(g), cg.port(cg.mate[g])
    return f"{u!r}:{i}–{v!r}:{j}"


def _check_matching(cg, cert: MatchingCertificate) -> int:
    """Re-prove the matching certificate; returns the certified ``|M|``."""
    vg = cg.vector()
    selected = cert.selected
    if (
        not isinstance(selected, np.ndarray)
        or selected.dtype != np.bool_
        or selected.shape != (vg.num_ports,)
    ):
        shape = getattr(selected, "shape", None)
        raise CertificateError(
            f"matching certificate must be a bool mask over the graph's "
            f"{vg.num_ports} ports, got {getattr(selected, 'dtype', None)} "
            f"of shape {shape}"
        )
    ports = np.flatnonzero(selected)
    one_sided = ~selected[vg.mate[ports]]
    if one_sided.any():
        g = int(ports[np.argmax(one_sided)])
        raise CertificateError(
            f"matching mask is not closed under mate at edge "
            f"{_edge_name(cg, g)}"
        )
    owners = vg.port_node[ports]
    loops = vg.peer_node[ports] == owners
    if loops.any():
        g = int(ports[np.argmax(loops)])
        raise CertificateError(
            f"matching certificate contains loop {_edge_name(cg, g)}"
        )
    counts = np.bincount(owners, minlength=vg.num_nodes)
    if ports.size and counts.max() > 1:
        node = cg.nodes[int(np.argmax(counts))]
        raise CertificateError(
            f"matching certificate is not a matching at node {node!r}"
        )
    if cert.maximal:
        matched = counts > 0
        missed = ~matched[vg.port_node] & ~matched[vg.peer_node]
        if missed.any():
            raise CertificateError(
                f"matching certificate claims maximality but misses "
                f"edge {_edge_name(cg, int(np.argmax(missed)))}"
            )
    return int(ports.size) // 2


def _check_cover(cg, cert: CoverCertificate) -> int:
    """Re-prove the cover certificate; returns the certified ``⌊Σy⌋``.

    Feasibility compares ``num[u] + num[v]`` with the denominator on
    every edge: int64 array arithmetic while no numerator exceeds
    :data:`_PAIR_SAFE`, the same comparison over Python ints otherwise.
    """
    vg = cg.vector()
    num, den = cert.numerators, cert.denominator
    _require_exact(num, den)
    den = int(den)
    if num.shape != (vg.num_nodes,):
        raise CertificateError(
            f"cover certificate must hold one numerator per node "
            f"({vg.num_nodes}), got shape {num.shape}"
        )
    if num.size and int(num.min()) < 0:
        k = int(np.argmin(num))
        raise CertificateError(
            f"cover value at {cg.nodes[k]!r} is negative: "
            f"{Fraction(int(num[k]), den)}"
        )
    if vg.num_ports:
        if int(num.max()) <= _PAIR_SAFE and den <= _INT64_MAX:
            values = num.astype(np.int64, copy=False)
        else:
            values = np.array(num.tolist(), dtype=object)
        short = (values[vg.port_node] + values[vg.peer_node]) < den
        if short.any():
            g = int(np.argmax(short))
            a = Fraction(int(num[vg.port_node[g]]), den)
            b = Fraction(int(num[vg.peer_node[g]]), den)
            raise CertificateError(
                f"cover certificate is infeasible at edge "
                f"{_edge_name(cg, g)}: {a} + {b} < 1"
            )
    return _exact_sum(num) // den


def verify_certificate(
    graph: PortNumberedGraph, result: BoundResult
) -> bool:
    """Re-prove *result*'s bounds from its certificate alone.

    Checks, in exact integer arithmetic over the compiled arrays:

    * the matching part (if any) is a mask of real, non-loop edges
      (closed under ``mate``) with pairwise disjoint endpoints, maximal
      when claimed, and certifies ``ν >= result.lower``;
    * the cover part (if any) has non-negative exact values, is feasible
      on every edge and certifies ``ν <= result.upper`` (a maximal
      matching's ``2|M|`` also counts as a certified upper bound);
    * ``lower <= upper``, and ``exact`` results have ``lower == upper``.

    Returns ``True`` on success; raises :class:`~repro.exceptions.
    CertificateError` naming the first violated condition otherwise.
    """
    cert = result.certificate
    if cert is None:
        raise CertificateError("result carries no certificate to verify")
    matching: MatchingCertificate | None = None
    cover: CoverCertificate | None = None
    if isinstance(cert, SandwichCertificate):
        matching, cover = cert.matching, cert.cover
    elif isinstance(cert, MatchingCertificate):
        matching = cert
    elif isinstance(cert, CoverCertificate):
        cover = cert
    else:
        raise CertificateError(
            f"unknown certificate type {type(cert).__name__}"
        )

    if result.lower > result.upper:
        raise CertificateError(
            f"inverted bracket: lower {result.lower} > upper {result.upper}"
        )
    if result.exact and result.lower != result.upper:
        raise CertificateError(
            f"result claims exactness with gap "
            f"{result.upper - result.lower}"
        )

    cg = graph.compiled()
    size = _check_matching(cg, matching) if matching is not None else None
    if result.lower > 0:
        if size is None:
            raise CertificateError(
                f"lower bound {result.lower} has no matching certificate"
            )
        if result.lower > size:
            raise CertificateError(
                f"lower bound {result.lower} exceeds the certified "
                f"matching size {size}"
            )

    upper_candidates: list[int] = []
    if cover is not None:
        upper_candidates.append(_check_cover(cg, cover))
    if size is not None and matching.maximal:
        upper_candidates.append(2 * size)
    # An exact engine claims ``upper == ν == |M|`` for a *maximum*
    # matching — tighter than anything a certificate can prove (that
    # would amount to certifying maximumness).  The bracket
    # ``[|M|, 2|M|]`` is still re-proven above; the zero-width claim
    # itself is the engine's, so it is exempted here, explicitly.
    exact_claim = result.exact and size is not None and result.upper == size
    if not upper_candidates and not exact_claim:
        raise CertificateError(
            f"upper bound {result.upper} has no certificate "
            "(need a cover or a maximal matching)"
        )
    if upper_candidates and result.upper < min(upper_candidates):
        if not exact_claim:
            raise CertificateError(
                f"upper bound {result.upper} is below every certified "
                f"candidate (best: {min(upper_candidates)})"
            )
    return True
