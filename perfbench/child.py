"""One fresh interpreter of the benchmark.

    python3 perfbench/child.py <role> <workload> <seed> <src> <cache-dir>

Roles:

``setup``
    Import the program from *src*, expand the workload's grid and key
    every unit; report the time that took.
``pass``
    ``setup``, then the untraced cold pass: every unit computed and
    written to the empty *cache-dir*.
``warm``
    ``setup``, then untraced warm passes against the *cache-dir* a
    ``pass`` child filled: every unit a cache hit, as when a user runs
    the same sweep again.
``traced``
    ``setup``, then one cold and one warm pass with every layer's entry
    point wrapped by :class:`layers.Tracer`.

The last line of stdout is one JSON object.  A pass that raises reports
``{"error": ...}``; a failure to set up exits non-zero.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

from workloads import WORKLOADS

#: Cache hits one ``warm`` child serves, about a third of a second of
#: re-runs whatever the grid size.  One sub-millisecond re-run says
#: little on a machine whose speed changes within a second, so a warm
#: child reports every re-run and the caller takes their mean.
WARM_HITS = 5_000

#: Written to stderr right before ``import repro``, so ``-X importtime``
#: lines after it belong to set-up rather than to interpreter boot.
SETUP_MARKER = "perfbench: setup begins"


def setup(workload, seed: int, src: str) -> dict:
    print(SETUP_MARKER, file=sys.stderr, flush=True)
    started = time.perf_counter()
    sys.path.insert(0, src)
    from repro.api import run_sweep
    from repro.engine import cache_key

    imported = time.perf_counter()
    units = workload.grid(seed).expand()
    keys = [cache_key(unit) for unit in units]
    done = time.perf_counter()
    return {
        "setup_s": done - started,
        "expand_s": done - imported,
        "run_sweep": run_sweep,
        "units": units,
        "meta": [
            {
                "algorithm": unit.algorithm,
                "d": dict(unit.graph.params).get("d"),
                "key": key,
            }
            for unit, key in zip(units, keys)
        ],
    }


def cold_pass(workload, ctx: dict, cache_dir: str) -> dict:
    """Compute every unit once, timing each from the progress callback.

    The inline backend finishes units in submission order, so the gap
    between consecutive progress calls is one unit's wall time.
    """
    stamps: list[float] = []
    with workload.engine_context():
        started = time.perf_counter()
        report = ctx["run_sweep"](
            ctx["units"],
            backend="inline",
            cache=cache_dir,
            progress=lambda done, cached: stamps.append(time.perf_counter()),
        )
        wall_s = time.perf_counter() - started
    return {
        "wall_s": wall_s,
        "unit_s": [b - a for a, b in zip(stamps, stamps[1:])],
        "computed": report.computed,
        "records": [record.canonical() for record in report.records],
    }


def warm_passes(workload, ctx: dict, cache_dir: str, reps: int,
                expected: list[str] | None = None) -> tuple[dict, list[str]]:
    """Re-run the units *reps* times against a filled cache.

    Every re-run's records are compared with *expected*, by default the
    first re-run's; returns the timings and *expected*.
    """
    walls: list[float] = []
    hits: list[int] = []
    mismatched: set[int] = set()
    with workload.engine_context():
        for _ in range(reps):
            started = time.perf_counter()
            report = ctx["run_sweep"](
                ctx["units"], backend="inline", cache=cache_dir
            )
            walls.append(time.perf_counter() - started)
            hits.append(report.cache_hits)
            records = [record.canonical() for record in report.records]
            if expected is None:
                expected = records
            mismatched.update(
                i for i, (got, want) in enumerate(zip(records, expected))
                if got != want
            )
    stats = {"warm_s": walls, "warm_hits": hits,
             "warm_mismatch": sorted(mismatched)}
    return stats, expected


def traced_pass(workload, ctx: dict, cache_dir: str) -> dict:
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        cold = cold_pass(workload, ctx, cache_dir)
        warm, _ = warm_passes(workload, ctx, cache_dir, 1, cold["records"])
    finally:
        tracer.uninstall()
    window_s = cold["wall_s"] + sum(warm["warm_s"])
    return {
        **cold,
        **warm,
        "layers": tracer.metrics(window_s),
        "window_s": window_s,
        "absent": tracer.absent,
    }


def run_role(role: str, workload, seed: int, src: str,
             cache_dir: str) -> dict:
    ctx = setup(workload, seed, src)
    out = {"setup_s": ctx["setup_s"], "expand_s": ctx["expand_s"],
           "units": ctx["meta"]}
    try:
        if role == "pass":
            out.update(cold_pass(workload, ctx, cache_dir))
        elif role == "warm":
            reps = -(-WARM_HITS // len(ctx["units"]))
            stats, out["records"] = warm_passes(workload, ctx, cache_dir,
                                                reps)
            out.update(stats)
        elif role == "traced":
            out.update(traced_pass(workload, ctx, cache_dir))
        elif role != "setup":
            raise SystemExit(f"unknown role {role!r}")
    except Exception:
        traceback.print_exc()
        out["error"] = traceback.format_exc(limit=1).strip().splitlines()[-1]
    out["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return out


def main(argv: list[str]) -> None:
    role, name, seed, src, cache_dir = argv
    out = run_role(role, WORKLOADS[name], int(seed), src, cache_dir)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
