"""Theorem 3: the O(1)-time algorithm for regular graphs.

    "The algorithm outputs all edges that are connected to a port with
    port number 1."  (paper Section 6)

An edge ``{u, v}`` is selected iff ``l(u, v) = 1`` or ``l(v, u) = 1``.
Every node is covered (its own port 1 selects an edge), so the output is
an edge cover and hence an edge dominating set; on a d-regular graph
``|D| <= |V| = 2|E|/d`` while the optimum is at least ``|E|/(2d - 1)``,
giving the tight factor ``4 - 2/d`` for even ``d`` (Theorem 1 shows no
algorithm does better).

The protocol is a single round: each node tells each neighbour which of
its ports the shared edge uses; a node then selects port 1 plus every
port whose peer port is 1.  The output is internally consistent by
construction (both endpoints see the same pair of port numbers).
"""

from __future__ import annotations

from typing import Mapping

from repro.runtime.algorithm import Message, NodeProgram

__all__ = ["PortOneEDS"]


class PortOneEDS(NodeProgram):
    """Select every edge incident to a port numbered 1 (Theorem 3).

    Usable directly as an anonymous algorithm factory::

        run_anonymous(graph, PortOneEDS)

    Defined for every graph; the ``4 - 2/d`` guarantee applies to
    d-regular inputs (for odd regular graphs Theorem 4's algorithm has a
    strictly better ratio).
    """

    ROUNDS = 1

    def send(self, rnd: int) -> Mapping[int, Message]:
        return {i: i for i in range(1, self.degree + 1)}

    def receive(self, rnd: int, inbox: Mapping[int, Message]) -> None:
        selected = {
            i for i, peer_port in inbox.items() if i == 1 or peer_port == 1
        }
        self.halt(selected)

    @classmethod
    def vector_program(cls, graph):
        """The vector engine's kernel for this algorithm."""
        from repro.algorithms.vector import VectorPortOne

        return VectorPortOne(graph)


# Registered where it is defined: work units reach this program by name.
from repro.registry.algorithms import register_anonymous  # noqa: E402

register_anonymous(
    "port_one",
    lambda graph: PortOneEDS,
    description="Theorem 3: O(1) rounds, ratio 4 - 2/d on d-regular graphs",
)
