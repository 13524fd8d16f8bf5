"""Tutorial: writing your own anonymous distributed algorithm.

The library is a general harness for the port-numbering model, not just
the paper's three algorithms.  This walk-through builds a new node
program on top of the Section 5 machinery: a *distinguishable-edge
cover* — every node that has a distinguishable neighbour selects that
edge.  On odd-regular graphs Lemma 1 guarantees this covers every node,
so it is a (crude) edge dominating set; comparing it with Theorem 4's
two-phase algorithm shows what the paper's extra machinery buys.

The example demonstrates the three integration points:

* subclass :class:`repro.algorithms.base.LabelAwareProgram` to inherit
  the two setup rounds (label pairs, distinguishable port, M(i, j) tags);
* implement ``algo_send`` / ``algo_receive`` with a rebased round
  counter;
* hand the class to :func:`repro.runtime.run_anonymous` — the class
  itself is the anonymous factory.

Run with::

    python examples/custom_algorithm.py
"""

from __future__ import annotations

from repro import RegularOddEDS, is_edge_dominating_set, run_anonymous
from repro.algorithms.base import LabelAwareProgram
from repro.eds import eds_lower_bound, minimum_eds_size
from repro.generators import random_regular


class DistinguishableEdgeCover(LabelAwareProgram):
    """Select my distinguishable edge (both endpoints must agree).

    An edge joins the output iff it is the distinguishable edge of at
    least one endpoint — exactly the union of all M(i, j), computed in
    one extra round: after the built-in setup I already know whether
    each incident edge is my distinguishable edge *or* my neighbour
    declared it (the ``m_port_tags`` computed by the base class), so I
    can halt immediately.
    """

    def algo_send(self, step):
        return {}

    def algo_receive(self, step, inbox):
        selected = {
            port for port, tags in self.m_port_tags.items() if tags
        }
        self.halt(selected)


def main() -> None:
    print("a custom algorithm in ~10 lines: the distinguishable-edge cover\n")
    for d, n in ((3, 16), (5, 24), (7, 32)):
        graph = random_regular(d, n, seed=d * n)

        custom = run_anonymous(graph, DistinguishableEdgeCover)
        cover = custom.edge_set()
        assert is_edge_dominating_set(graph, cover), (
            "Lemma 1 makes this a cover on odd-regular graphs"
        )

        paper = run_anonymous(graph, RegularOddEDS)
        tuned = paper.edge_set()

        # One optimum for both solutions: exact on small graphs, the
        # matching lower bound otherwise (so the ratios are upper bounds).
        if graph.num_edges <= 40:
            optimum = minimum_eds_size(graph)
        else:
            optimum = eds_lower_bound(graph)
        print(
            f"d={d}, n={n}: crude cover {len(cover):3d} edges "
            f"(ratio <= {len(cover) / optimum:.3f}, {custom.rounds} rounds)  "
            f"vs Theorem 4 {len(tuned):3d} edges "
            f"(ratio <= {len(tuned) / optimum:.3f}, {paper.rounds} rounds)"
        )

    print(
        "\nThe crude cover is feasible but redundant; Theorem 4's"
        " sequential M(i, j)\nprocessing and pruning phase are what earn"
        " the tight 4 - 6/(d+1) bound."
    )


if __name__ == "__main__":
    main()
