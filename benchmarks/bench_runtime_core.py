"""The simulation-core perf trajectory: reference vs compiled vs vector.

This is the repo's core performance number across its engines: for
representative ``large-regular`` and ``xlarge-regular`` cells it times
the dict-routed reference loop of ``tests/reference_loop.py``, the
compiled per-node loop and the default vector engine against each
other, asserts they produce identical results, and derives units/sec
and rounds/sec throughput.  The reference's columns, gates and ledger
entry keep the name ``legacy`` they had when the loop was an engine,
so the trajectories stay comparable across that move.

Two timing disciplines per engine:

* **cold** — a fresh graph every rep, so the figure *includes* graph
  compilation plus per-node program or vector kernel construction (the
  engine-realistic first-contact cost);
* **warm** — one graph reused across reps after an untimed priming
  run, so the memoised derived tables (vector schedules and views) are
  already in place and the figure is the round loop itself.

The reference loop is only timed on the ``large`` cells — on the
``xlarge`` ones it would dominate the benchmark's own runtime by
minutes while measuring nothing new.

Run as a script from the repository root (``.`` on the path makes the
reference importable as ``tests.reference_loop``) to emit the
machine-readable trajectory artifact::

    PYTHONPATH=src:benchmarks:. python benchmarks/bench_runtime_core.py --out BENCH_runtime.json

CI uploads the JSON as a build artifact; the committed copy records the
machine named in EXPERIMENTS.md.  The pytest entry points double as the
perf-smoke gates (the default vector engine ≥ 2× the reference, and vector
≥ 2× compiled on round-dominated units — deliberately generous floors;
the measured margins are far higher; and the bounded kernel's setup
≤ 5× the ``VectorGraph`` view it runs on) and the determinism check.
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro.obs import recording
from repro.registry.algorithms import resolve
from repro.registry.families import get_family
from repro.runtime import use_engine

from conftest import emit
from tests.reference_loop import REFERENCE, run_under

#: Representative cells of the ``large-regular`` scenario (n ≤ 2048,
#: reference included) plus ``xlarge-regular`` cells (n = 16384,
#: reference skipped).  ``round_dominated`` marks units whose cost is
#: the round loop itself — the speedup claims attach to those;
#: ``port_one`` is a single round, so its run is setup-dominated and
#: reported without the claim.  The ≥ 5× vector-over-compiled
#: acceptance number of the vector-engine PR attaches to the
#: round-dominated *xlarge* cells.
UNITS = (
    {"algorithm": "port_one", "d": 5, "n": 1024,
     "round_dominated": False, "xlarge": False},
    {"algorithm": "regular_odd", "d": 5, "n": 1024,
     "round_dominated": True, "xlarge": False},
    {"algorithm": "bounded_degree", "d": 5, "n": 1024,
     "round_dominated": True, "xlarge": False},
    {"algorithm": "bounded_degree", "d": 9, "n": 1024,
     "round_dominated": True, "xlarge": False},
    {"algorithm": "regular_odd", "d": 5, "n": 16384,
     "round_dominated": True, "xlarge": True},
    {"algorithm": "regular_odd", "d": 9, "n": 16384,
     "round_dominated": True, "xlarge": True},
    {"algorithm": "bounded_degree", "d": 9, "n": 16384,
     "round_dominated": True, "xlarge": True},
)

REPS = 3


def _build(unit):
    return get_family("regular").make(
        {"d": unit["d"], "n": unit["n"]}, 1
    )


def _time_engine(unit, engine: str, *, warm: bool = False):
    """Best-of-REPS wall time of one unit under *engine* (an engine
    name, or ``REFERENCE``).

    Cold reps build a fresh graph each (the graph build itself is
    untimed, everything derived from it is timed); warm reps reuse one
    graph primed by an untimed run, so memoised derived tables are hot.
    """
    bound = resolve(unit["algorithm"])
    best = float("inf")
    outcome = None
    if warm:
        graph = _build(unit)
        with run_under(engine):
            outcome = bound.run(graph)  # prime the memos, untimed
            for _ in range(REPS):
                started = time.perf_counter()
                outcome = bound.run(graph)
                best = min(best, time.perf_counter() - started)
        return best, outcome
    for _ in range(REPS):
        graph = _build(unit)
        with run_under(engine):
            started = time.perf_counter()
            outcome = bound.run(graph)
            elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return best, outcome


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return round(numerator / denominator, 2)


def measure_units() -> dict:
    """Time every unit on every applicable engine; assemble the rows.

    ``speedup`` is the reference (column ``legacy_s``) over the default
    vector engine (cold) and ``compiled_speedup`` the reference over
    the compiled per-node loop; all three are ``None`` on the xlarge
    cells, where the reference is not timed.
    """
    rows = []
    for unit in UNITS:
        compiled_cold, compiled_out = _time_engine(unit, "compiled")
        compiled_warm, _ = _time_engine(unit, "compiled", warm=True)
        vector_cold, vector_out = _time_engine(unit, "vector")
        vector_warm, _ = _time_engine(unit, "vector", warm=True)
        assert vector_out == compiled_out, f"engines disagree on {unit}"
        rounds = compiled_out[1]
        row = {
            **unit,
            "rounds": rounds,
            "compiled_cold_s": round(compiled_cold, 6),
            "compiled_warm_s": round(compiled_warm, 6),
            "rounds_per_s_compiled_cold": round(rounds / compiled_cold, 1),
            "rounds_per_s_compiled_warm": round(rounds / compiled_warm, 1),
            "legacy_s": None,
            "speedup": None,
            "compiled_speedup": None,
            "vector_cold_s": round(vector_cold, 6),
            "vector_warm_s": round(vector_warm, 6),
            "rounds_per_s_vector_cold": round(rounds / vector_cold, 1),
            "rounds_per_s_vector_warm": round(rounds / vector_warm, 1),
            "vector_speedup_cold": _ratio(compiled_cold, vector_cold),
            "vector_speedup_warm": _ratio(compiled_warm, vector_warm),
        }
        if not unit["xlarge"]:
            legacy_s, legacy_out = _time_engine(unit, REFERENCE)
            assert legacy_out == compiled_out, f"engines disagree on {unit}"
            row["legacy_s"] = round(legacy_s, 6)
            row["speedup"] = _ratio(legacy_s, vector_cold)
            row["compiled_speedup"] = _ratio(legacy_s, compiled_cold)
        rows.append(row)

    dominated = [
        r["speedup"] for r in rows
        if r["round_dominated"] and r["speedup"] is not None
    ]
    vector_dominated = [
        r["vector_speedup_cold"] for r in rows
        if r["round_dominated"] and r["xlarge"]
    ]
    return {
        "benchmark": (
            "runtime-core legacy vs compiled vs vector "
            "(large/xlarge-regular cells)"
        ),
        "reps_best_of": REPS,
        "units": rows,
        "summary": {
            # cold reference-over-vector on round-dominated large cells
            "round_dominated_min_speedup": min(dominated),
            "round_dominated_max_speedup": max(dominated),
            # cold compiled-over-vector on round-dominated xlarge cells
            "vector_min_speedup": min(vector_dominated),
            "vector_max_speedup": max(vector_dominated),
        },
    }


def _fmt_ms(seconds) -> str:
    return "      —" if seconds is None else f"{seconds * 1000:7.1f}"


def format_table(payload: dict) -> str:
    lines = [
        "runtime core: legacy vs compiled vs vector (best of "
        f"{payload['reps_best_of']}; cold = fresh graph per rep, "
        "warm = memoised tables)",
        f"{'unit':30s} {'legacy':>8s} {'cmp cold':>9s} {'cmp warm':>9s} "
        f"{'vec cold':>9s} {'vec warm':>9s} {'vec x':>6s}",
    ]
    for row in payload["units"]:
        label = f"{row['algorithm']} d={row['d']} n={row['n']}"
        vec_x = f"{row['vector_speedup_cold']:5.1f}x"
        lines.append(
            f"{label:30s} {_fmt_ms(row['legacy_s'])}ms"
            f" {_fmt_ms(row['compiled_cold_s'])}ms"
            f" {_fmt_ms(row['compiled_warm_s'])}ms"
            f" {_fmt_ms(row['vector_cold_s'])}ms"
            f" {_fmt_ms(row['vector_warm_s'])}ms {vec_x}"
        )
    summary = payload["summary"]
    lines.append(
        "round-dominated, legacy → vector (cold): "
        f"{summary['round_dominated_min_speedup']:.1f}x – "
        f"{summary['round_dominated_max_speedup']:.1f}x"
    )
    lines.append(
        "round-dominated xlarge, compiled → vector (cold): "
        f"{summary['vector_min_speedup']:.1f}x – "
        f"{summary['vector_max_speedup']:.1f}x"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_perf_smoke_vector_beats_legacy():
    """CI gate: the default vector engine ≥ 2× over the reference loop
    on one large-regular unit.  The threshold is kept far below the
    measured margin (≥ 10×) so shared-runner noise cannot flake it."""
    unit = {"algorithm": "regular_odd", "d": 5, "n": 512}
    legacy_s, legacy_out = _time_engine(unit, REFERENCE)
    vector_s, vector_out = _time_engine(unit, "vector")
    assert legacy_out == vector_out
    emit(
        f"perf smoke regular_odd d=5 n=512: legacy={legacy_s * 1000:.1f} ms, "
        f"vector={vector_s * 1000:.1f} ms "
        f"({legacy_s / vector_s:.1f}x)"
    )
    assert legacy_s / vector_s >= 2.0


def test_perf_smoke_vector_beats_compiled():
    """CI gate: vector ≥ 2× over compiled cold on one round-dominated
    xlarge unit.  As above, the floor is far below the measured margin
    (≥ 5× on bounded_degree) to keep shared runners from flaking it."""
    unit = {"algorithm": "bounded_degree", "d": 9, "n": 16384}
    compiled_s, compiled_out = _time_engine(unit, "compiled")
    vector_s, vector_out = _time_engine(unit, "vector")
    assert vector_out == compiled_out
    emit(
        f"perf smoke bounded_degree d=9 n=16384: "
        f"compiled={compiled_s * 1000:.1f} ms, "
        f"vector={vector_s * 1000:.1f} ms "
        f"({compiled_s / vector_s:.1f}x)"
    )
    assert compiled_s / vector_s >= 2.0


def test_bounded_kernel_setup_within_5x_view():
    """CI gate: building the Theorem 5 kernel on a graph -- labels, pair
    schedule and state -- costs at most 5× building the ``VectorGraph``
    view it runs on.  Both are linear passes over the same ports, so
    the ratio does not depend on the machine's speed.  The
    sort-and-search schedule construction these passes replaced
    measured 8.4–10.1× here on a 2-vCPU VM (best of 3 each, d = 4,
    n = 2^18); the linear passes measure 2.4–3.2×."""
    from repro.algorithms.vector import VectorBoundedDegree
    from repro.generators.pairing import pairing_regular
    from repro.portgraph.vector import VectorGraph

    def best_of_3(run) -> float:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
        return best

    def kernel(graph, cg):
        cg.memo.clear()  # the schedules are memoised on the graph
        VectorBoundedDegree(graph, 4, 5)

    ratios = []
    for seed in range(3):
        graph = pairing_regular(4, 2**18, seed=seed)
        cg = graph.compiled()
        view_s = best_of_3(lambda: VectorGraph(cg))
        cg.vector()  # built once, outside the kernel timing
        kernel_s = best_of_3(lambda: kernel(graph, cg))
        ratios.append(kernel_s / view_s)
        emit(
            f"bounded kernel setup d=4 n=2^18 seed={seed}: "
            f"view={view_s * 1000:.1f} ms, kernel={kernel_s * 1000:.1f} ms "
            f"({ratios[-1]:.1f}x)"
        )
    assert max(ratios) <= 5.0


def test_round_dominated_units_speed_up_5x():
    """The acceptance numbers on the full unit set (the committed
    BENCH_runtime.json was produced by exactly this measurement): cold
    reference-over-vector ≥ 5× on every round-dominated large-regular
    unit, and cold vector-over-compiled ≥ 5× on at least one
    round-dominated xlarge-regular unit."""
    payload = measure_units()
    emit(format_table(payload))
    assert payload["summary"]["round_dominated_min_speedup"] >= 5.0
    assert payload["summary"]["vector_max_speedup"] >= 5.0
    assert payload["summary"]["vector_min_speedup"] >= 1.5


def test_telemetry_overhead_under_5_percent():
    """The always-on-cheap gate for the telemetry subsystem: on a
    round-dominated unit the instrumented round loop may cost at most
    5% extra.  Measured with a recorder actively *collecting* — a strict
    superset of the disabled path (one flag check), so passing here
    bounds both.

    Measurement discipline (shared runners shift CPU speed regimes
    mid-run, with run-to-run swings far above the effect under test):
    gc is off while timing, each sample batches three executions, the
    variants run as off/on pairs with the order alternating per rep,
    and the verdict is the *median* per-pair ratio — pairs land in the
    same speed regime, the median throws away the ones straddling a
    regime shift.  A median over the threshold re-measures (up to three
    attempts): a real 5% regression reproduces, a scheduler artefact
    does not."""
    import gc as _gc
    import statistics

    unit = {"algorithm": "regular_odd", "d": 5, "n": 1024}
    bound = resolve(unit["algorithm"])
    reps = 11
    batch = 3

    def one_sample(with_recorder: bool) -> float:
        graphs = [_build(unit) for _ in range(batch)]
        with use_engine("compiled"):
            if with_recorder:
                with recording():
                    started = time.perf_counter()
                    for graph in graphs:
                        bound.run(graph)
                    return time.perf_counter() - started
            started = time.perf_counter()
            for graph in graphs:
                bound.run(graph)
            return time.perf_counter() - started

    def measure() -> tuple[float, list[float]]:
        ratios = []
        _gc.disable()
        try:
            one_sample(False)  # warm both variants up, untimed
            one_sample(True)
            for rep in range(reps):
                if rep % 2:
                    on = one_sample(True)
                    off = one_sample(False)
                else:
                    off = one_sample(False)
                    on = one_sample(True)
                ratios.append(on / off)
        finally:
            _gc.enable()
        return statistics.median(ratios), ratios

    for attempt in range(3):
        median_ratio, ratios = measure()
        emit(
            f"telemetry overhead regular_odd d=5 n=1024 "
            f"(median of {reps} pairs of {batch}, attempt {attempt + 1}): "
            f"{(median_ratio - 1.0) * 100:+.1f}% "
            f"(spread {min(ratios):.3f}..{max(ratios):.3f})"
        )
        if median_ratio <= 1.05:
            break
    assert median_ratio <= 1.05


def ledger_entries(payload: dict):
    """The bench rows as perf-ledger entries, one per engine.

    Each unit's cold time becomes a pseudo-phase named after the unit,
    so ``repro-eds perf compare`` flags per-unit regressions within one
    engine's trajectory (engines never compare against each other).
    The reference loop's entry is named ``legacy``.
    """
    from repro.obs.perf import LedgerEntry, git_sha

    sha = git_sha()
    stamp = time.time()
    column = {
        "legacy": "legacy_s",
        "compiled": "compiled_cold_s",
        "vector": "vector_cold_s",
    }
    entries = []
    for engine, key in column.items():
        phases = {
            f"{row['algorithm']} d={row['d']} n={row['n']}": row[key]
            for row in payload["units"]
            if row.get(key) is not None
        }
        if not phases:
            continue
        entries.append(LedgerEntry(
            scenario="bench:runtime-core",
            engine=engine,
            phases=phases,
            unit_wall_s=sum(phases.values()),
            units=len(phases),
            reps=payload["reps_best_of"],
            git_sha=sha,
            recorded_unix=stamp,
            python=platform.python_version(),
        ))
    return entries


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_runtime.json",
        help="where to write the machine-readable trajectory",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="also append one perf-ledger entry per engine "
        "(see `repro-eds perf`)",
    )
    args = parser.parse_args()
    payload = measure_units()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(format_table(payload))
    print(f"wrote {args.out}")
    if args.ledger:
        from repro.obs.perf import append_entry

        entries = ledger_entries(payload)
        for entry in entries:
            append_entry(args.ledger, entry)
        print(f"appended {len(entries)} ledger entr(ies) to {args.ledger}")
