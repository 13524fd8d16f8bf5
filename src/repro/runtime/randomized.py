"""Randomised extension of the port-numbering model.

The paper (§1.3-§1.4) studies *deterministic* algorithms and shows hard
limits: e.g. no deterministic anonymous algorithm finds a maximal
matching in a symmetric cycle.  Randomness removes these limits — each
node gets a private random source that breaks symmetry — at the price of
the clean tight bounds.  This module adds the minimal machinery to
demonstrate that contrast: a runner that equips every node program with
its own seeded :class:`random.Random`.

Determinism of the *simulation* is preserved: the per-node generators
are derived from a master seed and the node's position in the (sorted)
node list, so a run is reproducible even though the algorithm is
randomised.  Note that the node index is used only to seed randomness —
programs still receive nothing but their degree and their RNG, so the
model is "anonymous + private coins".
"""

from __future__ import annotations

import random
from typing import Callable

from repro.portgraph.graph import PortNumberedGraph
from repro.runtime.algorithm import NodeProgram
from repro.runtime.scheduler import DEFAULT_MAX_ROUNDS, RunResult, _dispatch

__all__ = ["RandomizedAlgorithm", "run_randomized"]

#: Factory: (degree, private_rng) -> node program.
RandomizedAlgorithm = Callable[[int, random.Random], NodeProgram]


def run_randomized(
    graph: PortNumberedGraph,
    algorithm: RandomizedAlgorithm,
    *,
    seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
) -> RunResult:
    """Run a randomised anonymous algorithm with reproducible coins.

    Randomised algorithms have no vector kernel, so the default engine
    runs them on the compiled loop.
    """
    master = random.Random(seed)
    return _dispatch(
        graph, None, (),
        lambda v: algorithm(
            graph.degree(v), random.Random(master.getrandbits(64))
        ),
        max_rounds, record_trace, False,
    )
