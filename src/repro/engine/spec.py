"""Declarative work units for the parallel experiment engine.

A *work unit* (:class:`JobSpec`) is plain data: an algorithm name plus
parameters, a graph specification (family name, parameters, seed), a
measurement kind, and measurement options.  Because units are data they
can be

* hashed into a stable content address (:mod:`repro.engine.cache`),
* shipped to ``multiprocessing`` workers without pickling any code
  (:mod:`repro.engine.executor`), and
* expanded from declarative grids (:mod:`repro.engine.grid`).

Names turn back into runnable code through the :mod:`repro.registry`
catalogue: graph families via :func:`repro.registry.get_family`,
algorithms via :func:`repro.registry.resolve`, and measures via
:func:`repro.registry.get_measure` — so anything registered there is
immediately addressable from a work unit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.lowerbounds.instance import LowerBoundInstance
from repro.portgraph.graph import PortNumberedGraph
from repro.registry.base import UnknownNameError
from repro.registry.families import get_family
from repro.registry.measures import get_measure, measure_names

__all__ = [
    "DEFAULT_EXACT_EDGE_LIMIT",
    "GraphSpec",
    "JobSpec",
    "OPTIMUM_MODES",
    "canonical_json",
    "derive_seed",
]

#: Optimum policies for the ``quality`` measure.
OPTIMUM_MODES = ("auto", "exact", "lower_bound", "dual_bound", "none")

#: Most edges ``optimum="auto"`` solves exactly, unless a unit says
#: otherwise: the default of :class:`JobSpec`, ``SweepGrid`` and
#: ``api.run_one``.
DEFAULT_EXACT_EDGE_LIMIT = 48


def canonical_json(obj: Any) -> str:
    """Serialise *obj* to a canonical JSON string (sorted keys, no
    whitespace) so equal values always produce equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(*parts: Any) -> int:
    """Derive a deterministic 63-bit seed from arbitrary JSON-able parts.

    Uses SHA-256 (not Python's salted ``hash``) so the same parts yield
    the same seed in every process, interpreter invocation, and worker —
    the foundation of reproducible per-unit seeding.
    """
    digest = hashlib.sha256(canonical_json(list(parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class GraphSpec:
    """A graph described as data: family name + parameters + seed."""

    family: str
    params: tuple[tuple[str, int], ...] = ()
    seed: int | None = None

    @classmethod
    def make(
        cls, family: str, *, seed: int | None = None, **params: int
    ) -> "GraphSpec":
        get_family(family)  # raises UnknownNameError with the name list
        return cls(family, tuple(sorted(params.items())), seed)

    @property
    def is_lower_bound(self) -> bool:
        return get_family(self.family).lower_bound

    def build(self) -> PortNumberedGraph | LowerBoundInstance:
        """Construct the graph (or lower-bound instance) this spec names."""
        return get_family(self.family).make(dict(self.params), self.seed)

    def label(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self.params)
        seed = "" if self.seed is None else f" seed={self.seed}"
        return f"{self.family} {parts}{seed}".strip()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "params": dict(self.params),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "GraphSpec":
        return cls.make(
            data["family"], seed=data.get("seed"), **data.get("params", {})
        )


@dataclass(frozen=True)
class JobSpec:
    """One independent, hashable unit of experimental work.

    ``measure`` names a registered :class:`~repro.registry.measures.
    Measure` and selects what the executor does.  The built-ins:

    * ``"quality"`` — run the algorithm, check feasibility, and measure
      the solution against an optimum chosen by ``optimum``:
      ``"exact"`` (branch-and-bound), ``"lower_bound"`` (poly-time bound),
      ``"dual_bound"`` (a certified bracket from :mod:`repro.bounds`:
      the greedy matching above, the ν sandwich below where ν can bind
      — interval ratios in near-linear time),
      ``"auto"`` (exact up to ``exact_edge_limit`` edges, then the
      blossom bound, then the bracket past
      :data:`repro.bounds.DUAL_BOUND_EDGE_LIMIT` edges) or ``"none"``
      (sizes and rounds only — for round-complexity sweeps);
    * ``"messages"`` — run with tracing and record the message traffic;
    * ``"adversary"`` — the graph spec must name a lower-bound
      construction; runs the Table 1 tightness confrontation;
    * ``"phase_split"`` — the Theorem 4 phase-I/phase-II snapshot used by
      the ablation study.
    """

    algorithm: str
    graph: GraphSpec
    algorithm_params: tuple[tuple[str, int], ...] = ()
    measure: str = "quality"
    optimum: str = "auto"
    exact_edge_limit: int = DEFAULT_EXACT_EDGE_LIMIT
    count_messages: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        try:
            measure = get_measure(self.measure)
        except UnknownNameError:
            raise ValueError(
                f"unknown measure {self.measure!r}; "
                f"available: {measure_names()}"
            ) from None
        if self.optimum not in OPTIMUM_MODES:
            raise ValueError(
                f"unknown optimum mode {self.optimum!r}; "
                f"available: {OPTIMUM_MODES}"
            )
        if measure.requires_lower_bound and not self.graph.is_lower_bound:
            raise ValueError(
                f"{self.measure} units need a lower-bound graph family, "
                f"got {self.graph.family!r}"
            )

    def display_label(self) -> str:
        return self.label or self.graph.label()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "algorithm_params": dict(self.algorithm_params),
            "graph": self.graph.to_json_dict(),
            "measure": self.measure,
            "optimum": self.optimum,
            "exact_edge_limit": self.exact_edge_limit,
            "count_messages": self.count_messages,
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls(
            algorithm=data["algorithm"],
            graph=GraphSpec.from_json_dict(data["graph"]),
            algorithm_params=tuple(
                sorted(data.get("algorithm_params", {}).items())
            ),
            measure=data.get("measure", "quality"),
            optimum=data.get("optimum", "auto"),
            # Not DEFAULT_EXACT_EDGE_LIMIT: a spec written without the
            # field meant 48, whatever the default becomes.
            exact_edge_limit=data.get("exact_edge_limit", 48),
            count_messages=data.get("count_messages", False),
            label=data.get("label", ""),
        )
