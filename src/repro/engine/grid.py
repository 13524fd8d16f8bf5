"""Declarative algorithm × family × size × seed grids.

A :class:`SweepGrid` expands into independent work units with
deterministic per-unit seeding: each cell's graph seed is derived by
:func:`~repro.engine.spec.derive_seed` from the grid's base seed and the
cell coordinates, so the expansion — and therefore every result — is
identical regardless of worker count, execution order, or which subset
of the grid has been computed before.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.engine.spec import (
    DEFAULT_EXACT_EDGE_LIMIT,
    GraphSpec,
    JobSpec,
    derive_seed,
)

__all__ = ["SweepGrid"]

#: Families the grid layer knows how to parameterise by (degree, size).
_GRID_FAMILIES = ("regular", "pairing_regular", "bounded")

#: The d-regular families: same feasibility rule, same cell labels.
_REGULAR_FAMILIES = ("regular", "pairing_regular")


@dataclass(frozen=True)
class SweepGrid:
    """A declarative sweep over degrees × sizes × seeds × algorithms."""

    name: str
    algorithms: tuple[str, ...]
    family: str = "regular"
    degrees: tuple[int, ...] = (3,)
    sizes: tuple[int, ...] = (16,)
    seeds: int = 1
    base_seed: int = 0
    measure: str = "quality"
    optimum: str = "auto"
    exact_edge_limit: int = DEFAULT_EXACT_EDGE_LIMIT
    count_messages: bool = False

    def __post_init__(self) -> None:
        if self.family not in _GRID_FAMILIES:
            raise ValueError(
                f"grid family must be one of {_GRID_FAMILIES}, "
                f"got {self.family!r}"
            )
        if self.seeds < 1:
            raise ValueError("need at least one seed per cell")

    def override(self, **changes: object) -> "SweepGrid":
        """A copy with the given fields replaced (CLI flag overrides)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def _cell_feasible(self, d: int, n: int) -> bool:
        if self.family in _REGULAR_FAMILIES:
            return n > d and (n * d) % 2 == 0
        return n > 1

    def _algorithm_applies(self, algorithm: str, d: int) -> bool:
        # The Theorem 4 algorithm is defined for odd-regular graphs only.
        if algorithm == "regular_odd":
            return self.family in _REGULAR_FAMILIES and d % 2 == 1
        return True

    def _graph_spec(self, d: int, n: int, replicate: int) -> GraphSpec:
        seed = derive_seed(self.name, self.base_seed, self.family,
                           d, n, replicate)
        if self.family in _REGULAR_FAMILIES:
            return GraphSpec.make(self.family, seed=seed, d=d, n=n)
        return GraphSpec.make("bounded", seed=seed, n=n, max_degree=d)

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """The feasible (degree, size, replicate) coordinates, in order."""
        for d in self.degrees:
            for n in self.sizes:
                if not self._cell_feasible(d, n):
                    continue
                for t in range(self.seeds):
                    yield d, n, t

    def expand(self) -> list[JobSpec]:
        """Expand into hashable, independently executable work units."""
        units: list[JobSpec] = []
        for d, n, t in self.cells():
            graph = self._graph_spec(d, n, t)
            label = (
                f"{self.family} d={d} n={n} #{t}"
                if self.family in _REGULAR_FAMILIES
                else f"{self.family} Δ={d} n={n} #{t}"
            )
            for algorithm in self.algorithms:
                if not self._algorithm_applies(algorithm, d):
                    continue
                units.append(
                    JobSpec(
                        algorithm=algorithm,
                        graph=graph,
                        measure=self.measure,
                        optimum=self.optimum,
                        exact_edge_limit=self.exact_edge_limit,
                        count_messages=self.count_messages,
                        label=label,
                    )
                )
        return units
