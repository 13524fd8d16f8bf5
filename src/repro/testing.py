"""Public hypothesis strategies for property-testing against this library.

Downstream users extending the library (custom node programs, new
numbering strategies, alternative constructions) can reuse these
strategies instead of rebuilding graph generators; the package's own
test suite imports them from here.

All strategies produce *simple* graphs; multigraph cases are exercised
through explicit constructions and random lifts.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

try:
    from hypothesis import strategies as st
except ImportError as exc:  # pragma: no cover - dev extra missing
    raise ImportError(
        "repro.testing requires hypothesis (install the 'dev' extra)"
    ) from exc

from repro.portgraph.convert import from_networkx
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.numbering import random_numbering

__all__ = [
    "nx_graphs",
    "regular_nx_graphs",
    "port_graphs",
    "odd_regular_port_graphs",
    "bounded_degree_port_graphs",
]


def nx_graphs(
    max_nodes: int = 12, max_degree: int | None = None
) -> "st.SearchStrategy[nx.Graph]":
    """Random simple graphs via edge-probability sampling.

    When *max_degree* is set, excess edges are pruned deterministically
    (given the drawn seed) until the bound holds.
    """

    @st.composite
    def build(draw: st.DrawFn) -> nx.Graph:
        import networkx as nx

        n = draw(st.integers(min_value=1, max_value=max_nodes))
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        p = draw(st.floats(min_value=0.05, max_value=0.9))
        graph = nx.gnp_random_graph(n, p, seed=seed)
        if max_degree is not None:
            rng = random.Random(seed)
            while True:
                over = [v for v, d in graph.degree() if d > max_degree]
                if not over:
                    break
                v = over[0]
                neighbours = list(graph.neighbors(v))
                graph.remove_edge(v, rng.choice(neighbours))
        return graph

    return build()


def regular_nx_graphs(
    degrees: tuple[int, ...] = (2, 3, 4, 5),
    max_nodes: int = 14,
) -> "st.SearchStrategy[nx.Graph]":
    """Random d-regular graphs for d drawn from *degrees*."""

    @st.composite
    def build(draw: st.DrawFn) -> nx.Graph:
        import networkx as nx

        d = draw(st.sampled_from(degrees))
        candidates = [
            n for n in range(d + 1, max_nodes + 1) if (n * d) % 2 == 0
        ]
        n = draw(st.sampled_from(candidates))
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        return nx.random_regular_graph(d, n, seed=seed)

    return build()


def port_graphs(
    max_nodes: int = 10, max_degree: int | None = None
) -> "st.SearchStrategy[PortNumberedGraph]":
    """Random simple port-numbered graphs with random port numberings."""

    @st.composite
    def build(draw: st.DrawFn) -> PortNumberedGraph:
        graph = draw(nx_graphs(max_nodes=max_nodes, max_degree=max_degree))
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        return from_networkx(graph, random_numbering(seed))

    return build()


def odd_regular_port_graphs(
    degrees: tuple[int, ...] = (1, 3, 5),
    max_nodes: int = 15,
) -> "st.SearchStrategy[PortNumberedGraph]":
    """Random odd-d-regular port graphs (Theorem 4's domain)."""

    @st.composite
    def build(draw: st.DrawFn) -> PortNumberedGraph:
        import networkx as nx

        d = draw(st.sampled_from(degrees))
        candidates = [
            n for n in range(d + 1, max_nodes + 1) if (n * d) % 2 == 0
        ]
        n = draw(st.sampled_from(candidates))
        seed = draw(st.integers(min_value=0, max_value=10**6))
        numbering_seed = draw(st.integers(min_value=0, max_value=10**6))
        graph = nx.random_regular_graph(d, n, seed=seed)
        return from_networkx(graph, random_numbering(numbering_seed))

    return build()


def bounded_degree_port_graphs(
    max_degree: int, max_nodes: int = 12
) -> "st.SearchStrategy[PortNumberedGraph]":
    """Random port graphs of bounded degree (Theorem 5's domain)."""

    @st.composite
    def build(draw: st.DrawFn) -> PortNumberedGraph:
        graph = draw(nx_graphs(max_nodes=max_nodes, max_degree=max_degree))
        seed = draw(st.integers(min_value=0, max_value=10**6))
        return from_networkx(graph, random_numbering(seed))

    return build()
