"""Experiments E4 and E12: round-complexity and average-case sweeps.

E4 reproduces the Table 1 "Time" column: measured round counts are O(1)
for Theorem 3 and exactly quadratic functions of d/Δ for Theorems 4-5,
and independent of the number of nodes (the algorithms are *local*).

E12 measures average-case approximation quality on random regular and
random bounded-degree graphs: the worst-case-tight algorithms do far
better than their guarantees on typical inputs, and the identified-model
baseline shows what unique IDs buy.

Both sweeps expand into declarative work units and execute through
:mod:`repro.engine`, so they can be sharded across workers and served
incrementally from the content-addressed result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.algorithms.bounded_degree import BoundedDegreeEDS
from repro.algorithms.regular_odd import RegularOddEDS
from repro.analysis.report import format_table
from repro.engine.cache import ResultCache
from repro.api import run_sweep
from repro.engine.records import ResultRecord
from repro.engine.spec import GraphSpec, JobSpec

__all__ = [
    "RoundComplexityRow",
    "round_complexity_sweep",
    "format_round_complexity",
    "average_case_sweep",
    "format_average_case",
]


@dataclass(frozen=True)
class RoundComplexityRow:
    algorithm: str
    parameter: int
    nodes: int
    rounds: int
    predicted: int

    @property
    def matches_prediction(self) -> bool:
        return self.rounds == self.predicted


def round_complexity_sweep(
    odd_degrees: Sequence[int] = (1, 3, 5, 7),
    sizes: Sequence[int] = (16, 32, 64),
    seed: int = 0,
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    backend: str | None = None,
) -> list[RoundComplexityRow]:
    """Measure rounds vs. degree and vs. n for all three algorithms.

    Round-count predictions: Theorem 3 always takes 1 round; Theorem 4
    takes ``2 + 2d²``; Theorem 5 takes ``2Δ'² + 4Δ'`` (Δ' = Δ rounded up
    to odd).  Any deviation is a bug, so the rows carry the prediction.
    """
    units: list[JobSpec] = []
    meta: list[tuple[str, int, int, int]] = []
    for d in odd_degrees:
        for n in sizes:
            if n <= d or (n * d) % 2:
                continue
            graph = GraphSpec.make("regular", seed=seed, d=d, n=n)
            plan = (
                ("port_one", (), 1),
                ("regular_odd", (), RegularOddEDS.total_rounds(d)),
                (
                    "bounded_degree",
                    (("delta", d),),
                    BoundedDegreeEDS(d).total_rounds(),
                ),
            )
            for name, params, predicted in plan:
                units.append(
                    JobSpec(
                        algorithm=name,
                        graph=graph,
                        algorithm_params=params,
                        measure="quality",
                        optimum="none",
                    )
                )
                meta.append((name, d, n, predicted))

    report = run_sweep(units, workers=workers, cache=cache, backend=backend)
    return [
        RoundComplexityRow(name, d, n, record.rounds, predicted)
        for record, (name, d, n, predicted) in zip(report.records, meta)
    ]


def format_round_complexity(rows: Sequence[RoundComplexityRow]) -> str:
    return format_table(
        ["algorithm", "d/Δ", "n", "rounds", "predicted", "ok"],
        [
            (
                r.algorithm,
                r.parameter,
                r.nodes,
                r.rounds,
                r.predicted,
                "yes" if r.matches_prediction else "NO",
            )
            for r in rows
        ],
        title="E4 — measured round complexity (Table 1 'Time' column)",
    )


def average_case_sweep(
    *,
    regular_degrees: Sequence[int] = (3, 4, 5),
    regular_size: int = 12,
    bounded_deltas: Sequence[int] = (3, 4),
    bounded_size: int = 12,
    instances: int = 5,
    seed: int = 0,
    workers: int = 1,
    cache: ResultCache | None = None,
    backend: str | None = None,
) -> list[ResultRecord]:
    """Average-case ratios on random graphs, all algorithms.

    Sizes are kept small enough for the exact optimum so the reported
    ratios are true ratios, not estimates.
    """
    units: list[JobSpec] = []

    for d in regular_degrees:
        for t in range(instances):
            n = regular_size if (regular_size * d) % 2 == 0 else regular_size + 1
            graph = GraphSpec.make("regular", seed=seed + t, d=d, n=n)
            label = f"regular d={d} #{t}"
            names = ["port_one"]
            if d % 2 == 1:
                names.append("regular_odd")
            names += ["bounded_degree", "ids_greedy", "central_greedy"]
            units.extend(
                JobSpec(algorithm=name, graph=graph, label=label)
                for name in names
            )

    for delta in bounded_deltas:
        for t in range(instances):
            graph = GraphSpec.make(
                "bounded", seed=seed + 100 + t, n=bounded_size,
                max_degree=delta,
            )
            label = f"bounded Δ={delta} #{t}"
            units.extend(
                JobSpec(algorithm=name, graph=graph, label=label)
                for name in ("bounded_degree", "ids_greedy", "central_greedy")
            )

    report = run_sweep(units, workers=workers, cache=cache, backend=backend)
    # Degenerate empty bounded draws carry no information; drop them.
    return [record for record in report.records if record.num_edges > 0]


def format_average_case(rows: Sequence[ResultRecord]) -> str:
    aggregated: dict[str, list[Fraction]] = {}
    for row in rows:
        aggregated.setdefault(row.algorithm, []).append(row.ratio)
    summary = [
        (
            name,
            len(ratios),
            f"{float(sum(ratios) / len(ratios)):.4f}",
            f"{float(max(ratios)):.4f}",
        )
        for name, ratios in sorted(aggregated.items())
    ]
    detail = format_table(
        ["algorithm", "graph", "n", "m", "|D|", "opt", "ratio", "rounds"],
        [
            (
                r.algorithm,
                r.graph_label,
                r.num_nodes,
                r.num_edges,
                r.solution_size,
                r.optimum,
                f"{float(r.ratio):.4f}",
                r.rounds,
            )
            for r in rows
        ],
        title="E12 — average-case ratios (exact optima)",
    )
    agg = format_table(
        ["algorithm", "runs", "mean ratio", "max ratio"],
        summary,
        title="E12 — summary",
    )
    return detail + "\n\n" + agg
