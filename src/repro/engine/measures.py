"""Built-in measures and the shared unit-execution pipeline.

:func:`default_execute` is the build → resolve → run → measure → record
pipeline behind every measure that follows the plugin protocol
(:meth:`~repro.registry.measures.Measure.measure` returning record-field
overrides).  The built-ins registered here are

* ``quality`` — feasibility + approximation ratio against a chosen
  optimum policy (the workhorse of the sweeps);
* ``comparison`` — quality plus a traced message count in one unit;
  the measure of ``repro-eds compare`` grids;
* ``messages`` — message-complexity profiling via a traced run;
* ``adversary`` — the Table 1 tightness confrontation on a lower-bound
  construction (custom execution);
* ``phase_split`` — the Theorem 4 phase-I/phase-II snapshot used by the
  ablations (custom execution).

The per-unit RNG for randomised algorithms is derived here from the
unit's content hash (``derive_seed("rng", key)``): the same work unit
always replays the same coins, so randomised results are cacheable and
byte-identical across reruns, worker counts, and processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from repro.analysis.reference import regular_odd_reference
from repro.bounds import (
    DUAL_BOUND_EDGE_LIMIT,
    BoundResult,
    nu_sandwich,
    verify_certificate,
)
from repro.eds.bounds import eds_lower_bound, eds_lower_bound_from_nu
from repro.eds.exact import minimum_eds_size
from repro.eds.properties import is_edge_dominating_set
from repro.engine.records import ResultRecord
from repro.engine.spec import GraphSpec, JobSpec, derive_seed
from repro.exceptions import AlgorithmContractError
from repro.lowerbounds.adversary import run_adversary
from repro.lowerbounds.instance import LowerBoundInstance
from repro.obs.spans import current_recorder, span
from repro.portgraph.graph import PortNumberedGraph
from repro.registry.algorithms import BoundAlgorithm, resolve
from repro.registry.measures import AlgorithmRun, Measure, register_measure

__all__ = [
    "AdversaryMeasure",
    "ComparisonMeasure",
    "MessagesMeasure",
    "OptimumOutcome",
    "PhaseSplitMeasure",
    "QualityMeasure",
    "build_graph",
    "default_execute",
    "unit_rng_seed",
]

#: ResultRecord fields a measure may override directly; anything else a
#: measure returns is stored in the record's ``extra`` mapping.
_RECORD_FIELDS = frozenset(
    ResultRecord.__dataclass_fields__
) - {"key", "extra"}


def unit_rng_seed(key: str) -> int:
    """The per-unit RNG seed: a pure function of the content address."""
    return derive_seed("rng", key)


def resolve_unit_algorithm(spec: JobSpec, key: str) -> BoundAlgorithm:
    """Resolve a unit's algorithm with its content-derived RNG bound."""
    return resolve(
        spec.algorithm, dict(spec.algorithm_params),
        rng_seed=unit_rng_seed(key),
    )


def build_graph(spec: GraphSpec) -> PortNumberedGraph | LowerBoundInstance:
    """Build a unit's graph under the ``graph_build`` span.

    ``graph_build`` keeps only coordination self-time: the generator
    runs under the ``graph_build:generate`` child.  A graph built from
    ``(d, p)`` dicts lowers them to arrays under its own
    ``graph_build:compile`` span, and ``graph_build:vector_view``
    (``CompiledGraph.vector``) records itself wherever it fires, so the
    phase table pins exactly which build stage dominates.  The build
    counters feed the edges/s line.
    """
    with span("graph_build", family=spec.family):
        with span("graph_build:generate"):
            graph = spec.build()
        recorder = current_recorder()
        if recorder is not None and isinstance(graph, PortNumberedGraph):
            recorder.count("graph_build.graphs")
            recorder.count("graph_build.edges", graph.num_edges)
    return graph


def default_execute(
    measure: Measure,
    spec: JobSpec,
    key: str,
    graph: PortNumberedGraph | LowerBoundInstance | None = None,
) -> ResultRecord:
    """The shared pipeline: build, run, measure, assemble the record.

    Each stage runs under a telemetry span (no-ops when telemetry is
    off): ``graph_build`` (see :func:`build_graph`), ``resolve``,
    ``simulate`` (the runtime annotates it with the engine name and
    round count), ``feasibility`` and ``measure:<name>`` — with the
    optimum computation nested inside the measure span as its own
    ``optimum`` child.

    *graph* is the unit's graph when its cell already built it
    (:func:`~repro.engine.executor.execute_cell`); without one the unit
    builds its own.
    """
    if graph is None:
        graph = build_graph(spec.graph)
    if not isinstance(graph, PortNumberedGraph):
        raise AlgorithmContractError(
            f"measure {measure.name!r} needs a plain graph family, got "
            f"{spec.graph.family!r}"
        )
    with span("resolve", algorithm=spec.algorithm):
        algorithm = resolve_unit_algorithm(spec, key)

    trace = None
    with span("simulate", algorithm=spec.algorithm, traced=False) as sim:
        if measure.needs_trace(spec) and algorithm.traced is not None:
            if sim is not None:
                sim.attrs["traced"] = True
            result = algorithm.traced(graph)
            edge_set, rounds, trace = (
                result.edge_set(), result.rounds, result.trace
            )
        else:
            edge_set, rounds = algorithm.run(graph)

    if measure.check_feasible:
        with span("feasibility"):
            feasible = is_edge_dominating_set(graph, edge_set)
        if not feasible:
            raise AlgorithmContractError(
                f"{spec.algorithm} produced an infeasible output on "
                f"{spec.display_label()}"
            )

    run = AlgorithmRun(
        spec=spec, algorithm=algorithm, edge_set=edge_set,
        rounds=rounds, trace=trace,
    )
    with span(f"measure:{measure.name}"):
        overrides = dict(measure.measure(graph, run))
    extra: dict[str, Any] = dict(overrides.pop("extra", {}))
    fields: dict[str, Any] = {
        "key": key,
        "algorithm": spec.algorithm,
        "graph_family": spec.graph.family,
        "graph_label": spec.display_label(),
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "max_degree": graph.max_degree,
        "solution_size": len(edge_set),
        "optimum": 0,
        "optimum_exact": False,
        "ratio_num": 0,
        "ratio_den": 1,
        "rounds": rounds,
        "messages": None,
    }
    for name, value in overrides.items():
        if name in _RECORD_FIELDS:
            fields[name] = value
        else:
            extra[name] = value
    return ResultRecord(extra=extra, **fields)


# ---------------------------------------------------------------------------
# Built-in measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimumOutcome:
    """What one unit's optimum policy resolved to.

    ``lower``/``upper`` bracket the *EDS optimum* (0 means "no bound on
    that side"); ``nu`` carries the ν sandwich when one was computed, so
    telemetry can report the dual−primal gap.  ``resolved`` names the
    engine that actually ran — ``auto`` units record whether they
    escalated to ``"exact"``, ``"blossom"`` or ``"sandwich"``.
    """

    lower: int
    upper: int
    exact: bool
    resolved: str
    nu: BoundResult | None = None


@register_measure
class QualityMeasure(Measure):
    """Feasibility + approximation ratio against an optimum policy.

    The unit's ``optimum`` field selects the baseline: ``"exact"``
    (branch-and-bound), ``"lower_bound"`` (poly-time bound),
    ``"dual_bound"`` (the certified ν sandwich — interval ratios),
    ``"auto"`` (exact while affordable, then blossom, then sandwich)
    or ``"none"`` (sizes and rounds only).  A unit that
    :meth:`needs_trace` also records its message count.
    """

    name = "quality"

    def needs_trace(self, spec: JobSpec) -> bool:
        return spec.count_messages

    @staticmethod
    def _optimum(
        spec: JobSpec, graph: PortNumberedGraph
    ) -> OptimumOutcome:
        with span("optimum", mode=spec.optimum) as opt:
            out = QualityMeasure._optimum_value(spec, graph)
            if opt is not None:
                opt.attrs["exact"] = out.exact
                opt.attrs["resolved"] = out.resolved
                if out.nu is not None:
                    opt.attrs["gap"] = out.nu.gap
            if out.nu is not None:
                rec = current_recorder()
                if rec is not None:
                    rec.count("optimum.sandwich")
                    rec.count("optimum.gap_total", out.nu.gap)
        return out

    @staticmethod
    def _sandwich(spec: JobSpec, graph: PortNumberedGraph) -> OptimumOutcome:
        """The dual_bound path: a verified ν bracket → an EDS interval.

        The primal matching order derives from the unit's graph spec
        (``derive_seed``), so the bracket — like everything else in a
        record — is a pure function of the spec, and every unit of one
        cell gets the same one: :func:`nu_sandwich` memoises it on the
        compiled graph, so it is computed once per cell.  Every emitted
        bound is still re-proven by :func:`repro.bounds.
        verify_certificate` under its own span, once per unit, before
        it may enter a record.
        """
        nu = nu_sandwich(
            graph, seed=derive_seed("bounds", spec.graph.to_json_dict())
        )
        with span("optimum_verify"):
            verify_certificate(graph, nu)
        lower = eds_lower_bound_from_nu(
            nu.lower, graph.num_edges, graph.max_degree
        )
        # The primal maximal matching is itself a feasible EDS, so its
        # size upper-bounds the optimum.
        upper = nu.lower if graph.num_edges else 0
        return OptimumOutcome(
            lower=lower, upper=upper, exact=False,
            resolved="sandwich", nu=nu,
        )

    @staticmethod
    def _optimum_value(
        spec: JobSpec, graph: PortNumberedGraph
    ) -> OptimumOutcome:
        if spec.optimum == "none":
            return OptimumOutcome(0, 0, False, "none")
        if spec.optimum == "exact":
            value = minimum_eds_size(graph)
            return OptimumOutcome(value, value, True, "exact")
        if spec.optimum == "lower_bound":
            return OptimumOutcome(
                eds_lower_bound(graph), 0, False, "blossom"
            )
        if spec.optimum == "dual_bound":
            return QualityMeasure._sandwich(spec, graph)
        # "auto": exact while affordable, then the blossom lower bound,
        # then the certified sandwich once blossom itself is the cost.
        if graph.num_edges <= spec.exact_edge_limit:
            value = minimum_eds_size(graph)
            return OptimumOutcome(value, value, True, "exact")
        if graph.num_edges <= DUAL_BOUND_EDGE_LIMIT:
            return OptimumOutcome(
                eds_lower_bound(graph), 0, False, "blossom"
            )
        return QualityMeasure._sandwich(spec, graph)

    def measure(
        self, graph: PortNumberedGraph, run: AlgorithmRun
    ) -> dict[str, Any]:
        spec = run.spec
        out = self._optimum(spec, graph)
        size = len(run.edge_set)
        if out.lower > 0:
            ratio = Fraction(size, out.lower)
        else:
            ratio = Fraction(1) if spec.optimum != "none" else Fraction(0)
        overrides: dict[str, Any] = {
            "optimum": out.lower,
            "optimum_exact": out.exact,
            "ratio_num": ratio.numerator,
            "ratio_den": ratio.denominator,
        }
        if out.upper > 0 and not out.exact:
            # A two-sided bracket: the solution is also an upper bound
            # witness, so ratio_lo is always >= 1 by construction.
            upper = min(out.upper, size)
            ratio_lo = Fraction(size, upper)
            overrides.update(
                optimum_lower=out.lower,
                optimum_upper=upper,
                ratio_lo_num=ratio_lo.numerator,
                ratio_lo_den=ratio_lo.denominator,
                ratio_hi_num=ratio.numerator,
                ratio_hi_den=ratio.denominator,
            )
            if out.nu is not None:
                # Extras (not record fields): the raw ν bracket.
                overrides["nu_lower"] = out.nu.lower
                overrides["nu_upper"] = out.nu.upper
        if self.needs_trace(spec):
            if run.trace is not None:
                overrides["messages"] = run.trace.total_messages
            elif run.algorithm.model == "central":
                overrides["messages"] = 0
        return overrides


@register_measure
class ComparisonMeasure(QualityMeasure):
    """The head-to-head measure behind ``repro-eds compare``.

    Everything :class:`QualityMeasure` reports — feasibility, exact-
    fraction ratio against the unit's optimum policy — plus the message
    count from a traced run, so one unit yields all three comparison
    axes (ratio, rounds, messages) for paper algorithms and baselines
    alike.
    """

    name = "comparison"

    def needs_trace(self, spec: JobSpec) -> bool:
        return True


@register_measure
class MessagesMeasure(Measure):
    """Message-complexity profiling: total traffic and the per-round peak.

    Central algorithms send nothing by definition; every distributed
    model is re-run with tracing enabled.
    """

    name = "messages"

    def needs_trace(self, spec: JobSpec) -> bool:
        return True

    def measure(
        self, graph: PortNumberedGraph, run: AlgorithmRun
    ) -> dict[str, Any]:
        if run.trace is not None:
            per_round = tuple(r.message_count for r in run.trace.rounds)
            total = run.trace.total_messages
            peak = max(per_round, default=0)
        elif run.algorithm.model == "central":
            total, peak = 0, 0
        else:
            raise AlgorithmContractError(
                f"algorithm {run.algorithm.name!r} cannot be message-traced"
            )
        return {"messages": total, "extra": {"max_round_messages": peak}}


@register_measure
class AdversaryMeasure(Measure):
    """Table 1 tightness: the algorithm against its adversarial instance.

    Custom execution: the unit's family builds a
    :class:`LowerBoundInstance`, and the confrontation drives the
    simulator through the algorithm's raw anonymous factory.
    """

    name = "adversary"
    requires_lower_bound = True
    grid_safe = False

    def execute(self, spec: JobSpec, key: str) -> ResultRecord:
        instance = spec.graph.build()
        assert isinstance(instance, LowerBoundInstance)
        algorithm = resolve_unit_algorithm(spec, key)
        if algorithm.factory is None:
            raise AlgorithmContractError(
                f"adversary units need an anonymous algorithm, got "
                f"{spec.algorithm!r}"
            )
        report = run_adversary(instance, algorithm.factory(instance.graph))
        return ResultRecord(
            key=key,
            algorithm=spec.algorithm,
            graph_family=spec.graph.family,
            graph_label=spec.display_label(),
            num_nodes=instance.graph.num_nodes,
            num_edges=instance.graph.num_edges,
            max_degree=instance.graph.max_degree,
            solution_size=report.solution_size,
            optimum=instance.optimum_size,
            optimum_exact=True,
            ratio_num=report.ratio.numerator,
            ratio_den=report.ratio.denominator,
            rounds=report.rounds,
            extra={
                "forced_ratio_num": instance.forced_ratio.numerator,
                "forced_ratio_den": instance.forced_ratio.denominator,
                "tight": report.is_tight,
                "feasible": report.feasible,
                "fibres_uniform": report.fibres_uniform,
            },
        )


@register_measure
class PhaseSplitMeasure(Measure):
    """The Theorem 4 phase-I/phase-II snapshot (ablation E13).

    Custom execution: runs the centralised reference implementation and
    records the phase-I edge-cover size against the final pruned size.
    """

    name = "phase_split"
    grid_safe = False

    def execute(self, spec: JobSpec, key: str) -> ResultRecord:
        graph = spec.graph.build()
        assert isinstance(graph, PortNumberedGraph)
        after_phase1, final = regular_odd_reference(graph)
        if not is_edge_dominating_set(graph, after_phase1):
            raise AlgorithmContractError(
                "phase I of Theorem 4 must already be an EDS"
            )
        return ResultRecord(
            key=key,
            algorithm=spec.algorithm,
            graph_family=spec.graph.family,
            graph_label=spec.display_label(),
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            max_degree=graph.max_degree,
            solution_size=len(after_phase1),
            optimum=0,
            optimum_exact=False,
            ratio_num=0,
            ratio_den=1,
            rounds=0,
            extra={"final_size": len(final)},
        )
