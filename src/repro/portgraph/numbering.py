"""Port-numbering strategies for simple undirected graphs.

The port-numbering model gives an adversary the power to choose how each
node numbers its endpoints.  A *numbering strategy* makes that choice: it
maps a :class:`networkx.Graph` to, for each node, an ordered tuple of its
neighbours; the neighbour in position ``k`` (0-based) is reached through
port ``k + 1``.

Strategies provided here:

* :func:`sequential_numbering` — neighbours sorted by ``repr``; the
  deterministic default.
* :func:`random_numbering` — a uniformly random permutation per node, for
  property-based testing.
* :func:`factor_pairing_numbering` — the adversarial numbering used by the
  paper's lower-bound constructions (Sections 3.2 and 4.1): the graph is
  2-factorised and the oriented factor ``i`` connects port ``2i - 1`` of a
  node to port ``2i`` of its successor.  Only defined for 2k-regular graphs.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.exceptions import NotRegularGraphError
from repro.portgraph.ports import Node

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "NumberingStrategy",
    "sequential_numbering",
    "random_numbering",
    "factor_pairing_numbering",
]

#: A numbering strategy maps a graph to {node: ordered neighbours}.
NumberingStrategy = Callable[["nx.Graph"], Mapping[Node, Sequence[Node]]]


def sequential_numbering(graph: nx.Graph) -> dict[Node, tuple[Node, ...]]:
    """Number each node's neighbours in ``repr``-sorted order."""
    return {
        node: tuple(sorted(graph.neighbors(node), key=repr))
        for node in graph.nodes
    }


def random_numbering(
    seed: int | None = None,
) -> Callable[[nx.Graph], dict[Node, tuple[Node, ...]]]:
    """Return a strategy that permutes each node's neighbours at random.

    The returned callable is itself a :data:`NumberingStrategy`; the *seed*
    fixes the permutation for reproducibility.
    """

    def strategy(graph: nx.Graph) -> dict[Node, tuple[Node, ...]]:
        rng = random.Random(seed)
        numbering: dict[Node, tuple[Node, ...]] = {}
        for node in sorted(graph.nodes, key=repr):
            neighbours = sorted(graph.neighbors(node), key=repr)
            rng.shuffle(neighbours)
            numbering[node] = tuple(neighbours)
        return numbering

    return strategy


def factor_pairing_numbering(graph: nx.Graph) -> dict[Node, tuple[Node, ...]]:
    """The adversarial 2-factor pairing numbering of Sections 3.2 / 4.1.

    The graph must be 2k-regular.  It is decomposed into k 2-factors
    (Petersen's theorem); each factor is oriented into directed cycles, and
    for each arc ``(u, v)`` of factor ``i`` port ``2i - 1`` of ``u`` leads to
    ``v`` while port ``2i`` of ``u`` leads to its predecessor in the factor.

    With this numbering the label pair of *every* edge in factor ``i`` is
    ``{2i - 1, 2i}``, so no node has a uniquely labelled edge — the numbering
    that makes the lower-bound graphs maximally symmetric.
    """
    from repro.factorization.two_factor import two_factorise_nx

    degrees = {d for _, d in graph.degree()}
    if len(degrees) > 1 or (degrees and next(iter(degrees)) % 2):
        raise NotRegularGraphError(
            "factor_pairing_numbering requires a 2k-regular graph; "
            f"degrees present: {sorted(degrees)}"
        )

    factors = two_factorise_nx(graph)
    ordered: dict[Node, list[Node]] = {node: [] for node in graph.nodes}
    for factor in factors:
        successor = factor.successor_map()
        predecessor = factor.predecessor_map()
        for node in graph.nodes:
            # port 2i-1 -> successor in factor i, port 2i -> predecessor
            ordered[node].append(successor[node])
            ordered[node].append(predecessor[node])
    return {node: tuple(neighbours) for node, neighbours in ordered.items()}
