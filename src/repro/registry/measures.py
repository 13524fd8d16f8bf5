"""The measure registry: names → measurement objects.

A *measure* decides what one work unit actually measures.  The plugin
protocol is deliberately small::

    class MyMeasure(Measure):
        name = "my_measure"

        def measure(self, graph, run) -> dict:
            return {"extra": {"my_number": ...}}

``measure(graph, run)`` receives the built graph and an
:class:`AlgorithmRun` (selected edge set, round count, optional message
trace, the resolved algorithm, the spec) and returns a mapping of
overrides: keys that name :class:`~repro.engine.records.ResultRecord`
fields replace those fields, an ``"extra"`` mapping is merged into the
record's extras, and anything else lands in extras too.  The shared
build → run → record pipeline lives in :mod:`repro.engine.measures`;
measures that need full control of execution (the adversary
confrontation, the phase split) override :meth:`Measure.execute`
instead.

Built-ins — ``quality``, ``comparison``, ``adversary``,
``phase_split``, ``messages`` — are registered in
:mod:`repro.engine.measures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Any, Mapping

from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import PortEdge
from repro.registry.base import Registry, RegistryError, load_builtins

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.records import ResultRecord
    from repro.engine.spec import JobSpec
    from repro.registry.algorithms import BoundAlgorithm
    from repro.runtime.trace import ExecutionTrace

__all__ = [
    "AlgorithmRun",
    "MEASURES",
    "Measure",
    "get_measure",
    "measure_names",
    "register_measure",
]


@dataclass(frozen=True)
class AlgorithmRun:
    """What one algorithm execution produced, as seen by a measure.

    ``edge_set`` equals (and hashes like) the ``frozenset[PortEdge]`` of
    the selected edges.  For simulated algorithms it is the run's
    mask-backed :class:`~repro.runtime.outputs.EdgeSelection`: its
    ``len()`` and feasibility are array operations, and iterating it
    decodes the edges once.
    """

    spec: "JobSpec"
    algorithm: "BoundAlgorithm"
    edge_set: AbstractSet[PortEdge]
    rounds: int
    trace: "ExecutionTrace | None" = None


class Measure:
    """Base class for registered measures.

    Subclasses set :attr:`name` and either implement :meth:`measure`
    (post-run overrides; the default pipeline handles graph building,
    algorithm resolution, feasibility checking, and record assembly) or
    override :meth:`execute` for full control.
    """

    #: Registry name; set by subclasses.
    name: str = ""
    #: The unit's graph family must build a LowerBoundInstance.
    requires_lower_bound: bool = False
    #: The default pipeline checks the output is an edge dominating set.
    check_feasible: bool = True
    #: Usable from declarative grids (``sweep --measure ...``); measures
    #: tied to special constructions opt out.
    grid_safe: bool = True
    #: Whether execution resolves the unit's algorithm name.  Measures
    #: that regenerate fixed artifacts (the figure reproductions) opt
    #: out, so their units need no registered algorithm.
    uses_algorithm: bool = True

    def needs_trace(self, spec: "JobSpec") -> bool:
        """Whether this unit must run with message tracing enabled."""
        return False

    def measure(
        self, graph: PortNumberedGraph, run: AlgorithmRun
    ) -> Mapping[str, Any]:
        """Post-run measurement: record-field overrides and extras."""
        return {}

    def execute(self, spec: "JobSpec", key: str) -> "ResultRecord":
        """Execute one work unit end to end (default shared pipeline).

        The executor runs non-overriding measures on the graph their
        cell already built; an override builds its own.
        """
        from repro.engine.measures import default_execute

        return default_execute(self, spec, key)


MEASURES: Registry[Measure] = Registry("measure", loader=load_builtins)


def register_measure(
    measure: "type[Measure] | Measure",
) -> "type[Measure] | Measure":
    """Register a :class:`Measure` subclass (decorator) or instance.

    Classes are instantiated with no arguments; ready-made instances
    register as-is, which is how parameterised measure families (one
    measure per paper figure, say) enrol each member under its own name.
    """
    if isinstance(measure, type) and issubclass(measure, Measure):
        if not measure.name:
            raise RegistryError(
                f"measure class {measure.__name__} must set a name"
            )
        MEASURES.register(measure.name, measure())
        return measure
    if isinstance(measure, Measure):
        if not measure.name:
            raise RegistryError(
                f"measure instance {measure!r} must set a name"
            )
        MEASURES.register(measure.name, measure)
        return measure
    raise RegistryError(
        f"register_measure expects a Measure subclass or instance, got "
        f"{measure!r}"
    )


def get_measure(name: str) -> Measure:
    return MEASURES.get(name)


def measure_names() -> tuple[str, ...]:
    return MEASURES.names()
