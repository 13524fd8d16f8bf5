"""The benchmark's workloads, as :class:`~repro.engine.grid.SweepGrid` recipes.

Every workload runs through ``repro.api.run_sweep`` on the ``inline``
backend.  The workload seed becomes the grid's base seed, so one
``--seed`` value fixes every graph of a run, and a claim can be
rechecked on a seed that was not used while writing it.

This module imports nothing from the program when it is imported: the
caller times ``import repro`` itself (see ``child.py``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager

__all__ = ["WORKLOADS", "Workload"]

#: The paper's three algorithms (``regular_odd`` only applies at odd d).
PAPER_ALGORITHMS = ("port_one", "bounded_degree", "regular_odd")


@dataclass(frozen=True)
class Workload:
    """One grid of units plus the engine it runs under."""

    name: str
    family: str
    degrees: tuple[int, ...]
    sizes: tuple[int, ...]
    algorithms: tuple[str, ...]
    optimum: str
    seeds: int = 1
    #: Scheduler engine for the whole pass; ``None`` keeps the default.
    engine: str | None = None

    def grid(self, seed: int):
        from repro.engine import SweepGrid

        return SweepGrid(
            name=f"perfbench-{self.name}",
            algorithms=self.algorithms,
            family=self.family,
            degrees=self.degrees,
            sizes=self.sizes,
            seeds=self.seeds,
            base_seed=seed,
            optimum=self.optimum,
        )

    def engine_context(self) -> ContextManager[None]:
        if self.engine is None:
            return nullcontext()
        from repro.runtime import use_engine

        return use_engine(self.engine)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Array-native-results traffic: decode, graph build, simulate and
        # feasibility on one large pairing-model graph; no bounds work.
        Workload(
            name="scale-none",
            family="pairing_regular",
            degrees=(4,),
            sizes=(2**18,),
            algorithms=("port_one", "bounded_degree"),
            optimum="none",
            engine="vector",
        ),
        # The same traffic at a quarter of the size with the certified
        # nu sandwich and its verification on.
        Workload(
            name="certified-bounds",
            family="pairing_regular",
            degrees=(4,),
            sizes=(2**16,),
            algorithms=("port_one", "bounded_degree"),
            optimum="dual_bound",
            engine="vector",
        ),
        # Many small units on the networkx route: the traffic of
        # ``repro-eds sweep``, with a cold and a warm cache.
        Workload(
            name="regular-sweep",
            family="regular",
            degrees=(3, 4, 5, 8),
            sizes=(256, 1024, 4096),
            seeds=3,
            algorithms=PAPER_ALGORITHMS,
            optimum="none",
        ),
    )
}
