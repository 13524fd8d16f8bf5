"""Theorem 2: the lower-bound construction for odd degree d.

Let ``k = (d - 1) / 2``.  For each ``ℓ = 1..d`` build a 2k-regular
component ``H(ℓ)`` (paper §4.1, Figure 5) on nodes
``A(ℓ) = {a_{ℓ,1} .. a_{ℓ,2k}}``, ``B(ℓ) = {b_{ℓ,1} .. b_{ℓ,2k}}`` and
``C(ℓ) = {c_ℓ}``, with edges

* ``R(ℓ)`` — the star ``{c_ℓ, b_{ℓ,i}}``,
* ``S(ℓ)`` — the matching ``{a_{ℓ,1},a_{ℓ,2}}, ...``,
* ``T(ℓ)`` — the crown ``{a_{ℓ,i}, b_{ℓ,j}} (i ≠ j)``.

Each ``H(ℓ)`` is 2-factorised to obtain ports ``1..2k`` exactly as in
Theorem 1.  The hub nodes ``P = {p_1..p_d}`` and ``Q = {q_1..q_2k}`` are
then wired to port ``d`` of every component node (§4.1, Figure 6):

* ``(p_ℓ, ℓ) ↔ (c_ℓ, d)``            for ℓ = 1..d,
* ``(p_i, ℓ) ↔ (b_{ℓ,i}, d)``        for ℓ = 1..d, i = 1..2k, i ≠ ℓ,
* ``(p_d, ℓ) ↔ (b_{ℓ,ℓ}, d)``        for ℓ = 1..2k,
* ``(q_i, ℓ) ↔ (a_{ℓ,i}, d)``        for ℓ = 1..d, i = 1..2k.

(The paper prints the third family with the range "ℓ = 1..d", but
``b_{d,d}`` does not exist since ``|B(ℓ)| = 2k = d - 1``; the evidently
intended range ℓ = 1..2k is the one under which every port is wired
exactly once.  The builder verifies completeness, so any wiring error
would be caught.)

The optimum is ``D* = Y ∪ ⋃_ℓ S(ℓ)`` with ``Y = {{p_ℓ, c_ℓ}}``, of size
``(k + 1) d`` (§4.2).  The graph covers the multigraph ``M`` on
``{x_1..x_d, y}`` (§4.3), collapsing each ``H(ℓ)`` to ``x_ℓ`` and
``P ∪ Q`` to ``y``; covering invariance forces any algorithm's output to
contain, for each ℓ, either all ``2d - 1`` edges between ``P ∪ Q`` and
``H(ℓ)`` or a whole 2-factor of ``H(ℓ)`` (also ``2d - 1`` edges), hence
``|D| >= (2d - 1) d`` and the forced ratio is
``(2d-1)d / ((k+1)d) = 4 - 6/(d + 1)`` (§4.4).
"""

from __future__ import annotations

from fractions import Fraction

from repro.exceptions import ConstructionError
from repro.factorization.two_factor import two_factorise_nx
from repro.lowerbounds.instance import LowerBoundInstance
from repro.portgraph.builder import PortGraphBuilder
from repro.portgraph.covering import quotient_by_partition
from repro.portgraph.graph import PortNumberedGraph

__all__ = ["build_odd_lower_bound", "hub_quotient"]


def hub_quotient(d: int) -> PortNumberedGraph:
    """The multigraph M of §4.3 (Figure 7) on nodes x_1..x_d and y."""
    if d < 1 or d % 2 == 0:
        raise ConstructionError(f"quotient needs odd d >= 1, got {d}")
    k = (d - 1) // 2
    builder = PortGraphBuilder()
    builder.add_node("y", d)
    for ell in range(1, d + 1):
        builder.add_node(f"x{ell}", d)
        for i in range(1, k + 1):
            builder.connect(f"x{ell}", 2 * i - 1, f"x{ell}", 2 * i)
        builder.connect("y", ell, f"x{ell}", d)
    return builder.build()


def _component_nodes(ell: int, k: int) -> tuple[list[str], list[str], str]:
    a = [f"a{ell}_{i}" for i in range(1, 2 * k + 1)]
    b = [f"b{ell}_{i}" for i in range(1, 2 * k + 1)]
    return a, b, f"c{ell}"


def build_odd_lower_bound(d: int) -> LowerBoundInstance:
    """Construct the Theorem 2 instance for an odd degree ``d >= 1``.

    Fully verified on return: d-regularity, the |D*| = (k+1)d optimality
    certificate, and the covering map onto the hub quotient of §4.3.
    """
    import networkx as nx

    if d < 1 or d % 2 == 0:
        raise ConstructionError(
            f"Theorem 2 construction needs odd d >= 1, got {d}"
        )
    k = (d - 1) // 2

    builder = PortGraphBuilder()
    p_nodes = [f"p{ell}" for ell in range(1, d + 1)]
    q_nodes = [f"q{i}" for i in range(1, 2 * k + 1)]
    for node in p_nodes + q_nodes:
        builder.add_node(node, d)

    block_of: dict[str, str] = {node: "y" for node in p_nodes + q_nodes}
    optimum_pairs: list[tuple[str, str]] = []

    for ell in range(1, d + 1):
        a, b, c = _component_nodes(ell, k)
        for node in a + b + [c]:
            builder.add_node(node, d)
            block_of[node] = f"x{ell}"

        # --- H(ℓ): star + matching + crown, 2-factorised for ports 1..2k
        component = nx.Graph()
        component.add_nodes_from(a + b + [c])
        component.add_edges_from((c, bi) for bi in b)                 # R(ℓ)
        s_pairs = [(a[2 * t], a[2 * t + 1]) for t in range(k)]
        component.add_edges_from(s_pairs)                             # S(ℓ)
        component.add_edges_from(
            (a[i], b[j])
            for i in range(2 * k)
            for j in range(2 * k)
            if i != j
        )                                                             # T(ℓ)
        optimum_pairs.extend(s_pairs)

        for factor_index, factor in enumerate(
            two_factorise_nx(component), start=1
        ):
            out_port = 2 * factor_index - 1
            in_port = 2 * factor_index
            for arc in factor.arcs:
                builder.connect(arc.tail, out_port, arc.head, in_port)

        # --- hub wiring: port d of every component node (§4.1)
        builder.connect(f"p{ell}", ell, c, d)
        optimum_pairs.append((f"p{ell}", c))                          # Y
        for i in range(1, 2 * k + 1):
            if i != ell:
                builder.connect(f"p{i}", ell, f"b{ell}_{i}", d)
        if ell <= 2 * k:
            builder.connect(f"p{d}", ell, f"b{ell}_{ell}", d)
        for i in range(1, 2 * k + 1):
            builder.connect(f"q{i}", ell, f"a{ell}_{i}", d)

    graph = builder.build()

    edge_index = {e.endpoints: e for e in graph.edges}
    optimum = frozenset(
        edge_index[frozenset(pair)] for pair in optimum_pairs
    )
    if len(optimum) != (k + 1) * d:
        raise ConstructionError(
            f"|D*| = {len(optimum)} but the paper's certificate "
            f"requires (k+1)d = {(k + 1) * d}"
        )

    quotient, covering_map = quotient_by_partition(graph, block_of)
    if quotient != hub_quotient(d):
        raise ConstructionError(
            "quotient does not match the hub multigraph of §4.3"
        )

    instance = LowerBoundInstance(
        family="regular-odd",
        d=d,
        graph=graph,
        optimum=optimum,
        quotient=quotient,
        covering_map=covering_map,
        forced_ratio=Fraction(4) - Fraction(6, d + 1),
    )
    instance.verify()
    return instance
