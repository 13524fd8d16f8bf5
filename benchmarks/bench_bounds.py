"""The certified-bounds perf trajectory: ν-sandwich vs blossom.

The bounds subsystem exists because the exact blossom matching made the
``optimum`` phase the wall at scale: ~2.4 s per n=4096 unit and minutes
at n=16384 in E20.  This benchmark times the full certified pipeline —
round-parallel greedy plus augmentation primal, multiplicative-weights
dual cover, and the exact integer certificate verification, all over
the compiled CSR arrays — against ``networkx`` blossom on the same
random regular instances, asserts the sandwich actually brackets the
exact ν it replaces, and records the gap next to the gap of the
dict-based sandwich the array kernels replaced, so the speedup is never
quoted without its accuracy cost.  Two ``pairing_regular`` rows (the
``certified-bounds`` benchmark graph and four times it) time the
sandwich alone at the sizes the engine runs it.

Run as a script to emit the machine-readable trajectory artifact::

    PYTHONPATH=src python benchmarks/bench_bounds.py --out BENCH_bounds.json

CI uploads the JSON as a build artifact; the committed copy records a
2-vCPU Linux VM.  The pytest entry points double as the perf gate
(sandwich + verify ≥ 150× faster than blossom on a d=4 n=4096 unit) and
the soundness check at scale.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.bounds import nu_sandwich, verify_certificate
from repro.eds.bounds import maximum_matching_size
from repro.registry.families import get_family

from conftest import emit

#: Representative cells: the ``xlarge-regular`` degrees at the two
#: sizes E20/E21 care about, plus the ``certified-bounds`` benchmark
#: graph (pairing_regular d=4 n=2^16) and four times it.  Blossom is
#: only timed where it finishes in seconds (n=4096); elsewhere the
#: sandwich runs alone and the row records the absolute cost of the
#: certified interval at full scale.
UNITS = (
    {"family": "regular", "d": 2, "n": 4096, "blossom": True},
    {"family": "regular", "d": 4, "n": 4096, "blossom": True},
    {"family": "regular", "d": 8, "n": 4096, "blossom": True},
    {"family": "regular", "d": 2, "n": 16384, "blossom": False},
    {"family": "regular", "d": 8, "n": 16384, "blossom": False},
    {"family": "pairing_regular", "d": 4, "n": 2**16, "blossom": False},
    {"family": "pairing_regular", "d": 4, "n": 2**18, "blossom": False},
)

#: The ν gap of each row's graph under the dict-based sandwich the array
#: kernels replaced (sequential greedy over a ``random.Random`` shuffle,
#: seed 0; E21–E27), reported next to the current gap.
DICT_SANDWICH_GAPS = {
    ("regular", 2, 4096): 69,
    ("regular", 4, 4096): 6,
    ("regular", 8, 4096): 1,
    ("regular", 2, 16384): 282,
    ("regular", 8, 16384): 1,
    ("pairing_regular", 4, 2**16): 111,
    ("pairing_regular", 4, 2**18): 532,
}

REPS = 3


def _label(unit) -> str:
    return f"{unit['family']} d={unit['d']} n={unit['n']}"


def _build(unit):
    family = unit.get("family", "regular")
    return get_family(family).make({"d": unit["d"], "n": unit["n"]}, 1)


def _time_sandwich(graph) -> tuple[float, object]:
    """Best-of-REPS wall time of sandwich + certificate verification —
    the full cost the engine pays per ``dual_bound`` cell.  The sandwich
    is memoised on the compiled graph, so every rep drops it first."""
    best = float("inf")
    result = None
    for _ in range(REPS):
        graph.compiled().memo.pop(("nu_sandwich", 0), None)
        started = time.perf_counter()
        result = nu_sandwich(graph, seed=0)
        verify_certificate(graph, result)
        best = min(best, time.perf_counter() - started)
    return best, result


def _time_blossom(graph) -> tuple[float, int]:
    best = float("inf")
    nu = 0
    for _ in range(REPS):
        fresh = graph.compiled()
        fresh.memo.pop("max_matching_nodes", None)
        started = time.perf_counter()
        nu = maximum_matching_size(graph)
        best = min(best, time.perf_counter() - started)
    return best, nu


def measure_units() -> dict:
    """Time every unit and assemble the trajectory."""
    rows = []
    for unit in UNITS:
        graph = _build(unit)
        sandwich_s, result = _time_sandwich(graph)
        row = {
            "family": unit["family"],
            "d": unit["d"],
            "n": unit["n"],
            "nu_lower": result.lower,
            "nu_upper": result.upper,
            "gap": result.gap,
            "gap_dict_sandwich": DICT_SANDWICH_GAPS[
                unit["family"], unit["d"], unit["n"]
            ],
            "sandwich_s": round(sandwich_s, 6),
        }
        if unit["blossom"]:
            blossom_s, nu = _time_blossom(graph)
            assert result.lower <= nu <= result.upper, unit
            row["nu_exact"] = nu
            row["blossom_s"] = round(blossom_s, 6)
            row["speedup"] = round(blossom_s / sandwich_s, 1)
        rows.append(row)
    timed = [r["speedup"] for r in rows if "speedup" in r]
    return {
        "benchmark": "certified ν-sandwich vs blossom (xlarge-regular cells)",
        "reps_best_of": REPS,
        "units": rows,
        "summary": {
            "min_speedup_at_4096": min(timed),
            "max_speedup_at_4096": max(timed),
            "max_sandwich_s_at_16384": max(
                r["sandwich_s"] for r in rows if r["n"] == 16384
            ),
            "sandwich_s_pairing_2^18": next(
                r["sandwich_s"] for r in rows
                if r["family"] == "pairing_regular" and r["n"] == 2**18
            ),
            "gap_total": sum(r["gap"] for r in rows),
            "gap_total_dict_sandwich": sum(
                r["gap_dict_sandwich"] for r in rows
            ),
        },
    }


def format_table(payload: dict) -> str:
    lines = [
        "certified bounds: ν-sandwich + verify vs blossom (best of "
        f"{payload['reps_best_of']})",
        f"{'unit':32s} {'sandwich':>9s} {'blossom':>9s} {'speedup':>8s} "
        f"{'ν interval':>18s} {'gap':>5s} {'dict':>5s}",
    ]
    for row in payload["units"]:
        label = _label(row)
        blossom = (
            f"{row['blossom_s'] * 1000:7.1f}ms" if "blossom_s" in row
            else f"{'—':>9s}"
        )
        speedup = (
            f"{row['speedup']:7.1f}x" if "speedup" in row else f"{'—':>8s}"
        )
        interval = f"[{row['nu_lower']}, {row['nu_upper']}]"
        lines.append(
            f"{label:32s} {row['sandwich_s'] * 1000:7.1f}ms {blossom} "
            f"{speedup} {interval:>18s} {row['gap']:5d} "
            f"{row['gap_dict_sandwich']:5d}"
        )
    summary = payload["summary"]
    lines.append(
        f"n=4096 speedups: {summary['min_speedup_at_4096']:.1f}x – "
        f"{summary['max_speedup_at_4096']:.1f}x; worst n=16384 sandwich "
        f"{summary['max_sandwich_s_at_16384'] * 1000:.0f}ms"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_sandwich_beats_blossom_150x():
    """CI gate on the d=4 n=4096 unit: the array sandwich plus its
    verification against the blossom matching it replaces."""
    unit = {"d": 4, "n": 4096}
    graph = _build(unit)
    sandwich_s, result = _time_sandwich(graph)
    blossom_s, nu = _time_blossom(graph)
    assert result.lower <= nu <= result.upper
    emit(
        f"bounds gate regular d=4 n=4096: sandwich+verify="
        f"{sandwich_s * 1000:.1f} ms, blossom={blossom_s * 1000:.1f} ms "
        f"({blossom_s / sandwich_s:.1f}x), gap={result.gap}"
    )
    assert blossom_s / sandwich_s >= 150.0


def test_sandwich_under_5s_at_16384():
    """The ISSUE acceptance bound at full scale: optimum phase < 5 s per
    unit at the sizes where blossom took minutes (E20: ~172 s)."""
    graph = _build({"d": 8, "n": 16384})
    sandwich_s, result = _time_sandwich(graph)
    emit(
        f"bounds at scale regular d=8 n=16384: sandwich+verify="
        f"{sandwich_s:.3f} s, ν ∈ [{result.lower}, {result.upper}]"
    )
    assert sandwich_s < 5.0
    assert result.lower <= result.upper


def ledger_entries(payload: dict):
    """The bench rows as perf-ledger entries: sandwich vs blossom.

    Per-unit times become pseudo-phases so ``repro-eds perf compare``
    flags regressions unit by unit within each method's trajectory.
    """
    import platform

    from repro.obs.perf import LedgerEntry, git_sha

    sha = git_sha()
    stamp = time.time()
    entries = []
    for engine, key in (("sandwich", "sandwich_s"), ("blossom", "blossom_s")):
        phases = {
            _label(row): row[key]
            for row in payload["units"]
            if row.get(key) is not None
        }
        if not phases:
            continue
        entries.append(LedgerEntry(
            scenario="bench:bounds",
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
        "--out", default="BENCH_bounds.json",
        help="where to write the machine-readable trajectory",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="also append one perf-ledger entry per method "
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
