"""The graph-construction perf trajectory: direct-to-CSR vs networkx.

After the vector engine (PR 8) and certified bounds (PR 7), profiling
showed ``graph_build`` at 80.8% of xlarge wall time: every family
routed networkx → edge dicts → ``from_networkx`` →
``CompiledGraph.__init__`` walking Python dicts.  The direct path
(PR 10) emits the compiled arrays straight from the generator — the
structured families replay the *same* numbering coins (byte-identical
output, pinned by ``tests/test_direct_csr.py``), and the pairing-model
``pairing_regular`` family replaces networkx's regular sampler with an
O(nd) streaming construction.  Since then the ``regular`` family's
default route draws its edges with an array replay of networkx's own
sampler (byte-identical, pinned by ``tests/test_regular_replay.py``)
and lowers them with the same numpy code as the structured families.

This benchmark times both routes cold on the same cells — for the
``regular`` rows the default array route against the forced-numbering
networkx route, with ``pairing_regular`` alongside — plus the
direct-only million-node cells that have no networkx counterpart worth
waiting for.  Run as a script to emit the committed artifact::

    PYTHONPATH=src:benchmarks python benchmarks/bench_graph_build.py \
        --out BENCH_graphbuild.json

CI uploads the JSON as a build artifact; the committed copy records the
machine it was last measured on.  The pytest entry points double as
the perf gates (pairing ≥ 5× over networkx on a d-regular slice; a
whole pairing build at d=4, n=2^18 ≥ 1.5× faster than the stdlib
shuffle of its stubs alone; the ``regular-sweep`` graphs ≥ 1.4× faster
than the same builds with the stdlib shuffles; the ``regular`` array
route ≥ 4× over networkx at d=4, n=16384; structured families ≥ 2× —
they replay identical numbering coins, so the win is the dict walk
only; n=10^6 build in seconds).
"""

from __future__ import annotations

import argparse
import json
import random
import time

import numpy as np

from repro.generators.bounded import grid, path
from repro.generators.direct import from_edge_arrays
from repro.generators.pairing import pairing_regular
from repro.generators.regular import (
    _regular_edges,
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    random_regular,
    torus,
)
from repro.portgraph.numbering import random_numbering

from conftest import emit

#: Structured families: the direct path must replay the networkx
#: route's numbering coins exactly, so its win is bounded by the RNG
#: replay — these rows quantify the dict-walk overhead it removes.
STRUCTURED = (
    ("cycle n=16384", cycle, (16384,)),
    ("complete n=512", complete, (512,)),
    ("complete_bipartite 128x128", complete_bipartite, (128, 128)),
    ("hypercube dim=13", hypercube, (13,)),
    ("torus 128x128", torus, (128, 128)),
    ("path n=16384", path, (16384,)),
    ("grid 128x128", grid, (128, 128)),
)

#: The d-regular slice that dominated xlarge-regular's graph_build
#: phase: networkx's sampler on the networkx route, its array replay on
#: the default route, and the pairing model.
REGULAR = ((4, 4096), (4, 16384), (8, 16384))

#: Direct-only million-node cells (the ``huge-regular`` scenario);
#: networkx is minutes-per-graph here, so only the direct path is timed.
HUGE = ((2, 1048576), (4, 1048576), (8, 1048576))

#: The ``regular-sweep`` workload's 36 graphs (``perfbench/workloads.py``).
SWEEP = [
    (d, n, seed)
    for d in (3, 4, 5, 8)
    for n in (256, 1024, 4096)
    for seed in range(3)
]

REPS = 3
SEED = 1


def _best_of(fn, reps=REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _networkx_regular(d, n):
    """``random_regular`` forced onto the networkx route."""
    return random_regular(d, n, seed=SEED, numbering=random_numbering(SEED))


class _StdlibRounds:
    """The sampler's rounds on ``random.Random.shuffle``, a list each."""

    def __init__(self, rng: random.Random) -> None:
        self._shuffle = rng.shuffle

    def order(self, m: int) -> np.ndarray:
        index = list(range(m))
        self._shuffle(index)
        return np.array(index, dtype=np.int64)


def _regular_build_stdlib(d, n, seed):
    """``random_regular(d, n, seed=seed)`` with both of its shuffles on
    the stdlib: the sampler's rounds, then the numbering's loop of one
    shuffle per node."""
    u, v = _regular_edges(d, n, _StdlibRounds(random.Random(seed)))
    graph = from_edge_arrays(n, u, v)
    shuffle = random.Random(seed).shuffle
    local: list[int] = []
    for _ in range(n):
        index = list(range(d))
        shuffle(index)
        local.extend(index)
    np.array(local, dtype=np.int64)
    return graph


def measure_units() -> dict:
    """Time every cell, both routes, cold each rep."""
    rows = []
    for label, build, args in STRUCTURED:
        direct_s = _best_of(lambda: build(*args, seed=SEED))
        nx_s = _best_of(
            lambda: build(*args, seed=SEED, numbering=random_numbering(SEED))
        )
        graph = build(*args, seed=SEED)
        rows.append({
            "unit": label, "kind": "structured",
            "n": graph.num_nodes, "edges": graph.num_edges,
            "direct_s": round(direct_s, 6), "networkx_s": round(nx_s, 6),
            "speedup": round(nx_s / direct_s, 1),
        })
    for d, n in REGULAR:
        # Forced numbering keeps this column on the networkx route;
        # without one, random_regular replays the sampler in arrays.
        # The pairing row's speedup is against the same networkx time,
        # which is recorded once, on the regular row.
        nx_s = _best_of(lambda: _networkx_regular(d, n))
        for kind, build in (("regular", random_regular),
                            ("pairing", pairing_regular)):
            direct_s = _best_of(lambda: build(d, n, seed=SEED))
            rows.append({
                "unit": f"{build.__name__} d={d} n={n}", "kind": kind,
                "n": n, "edges": n * d // 2,
                "direct_s": round(direct_s, 6),
                "networkx_s": round(nx_s, 6) if kind == "regular" else None,
                "speedup": round(nx_s / direct_s, 1),
            })
    for d, n in HUGE:
        direct_s = _best_of(lambda: pairing_regular(d, n, seed=SEED), reps=1)
        rows.append({
            "unit": f"pairing_regular d={d} n={n}", "kind": "huge",
            "n": n, "edges": n * d // 2,
            "direct_s": round(direct_s, 6), "networkx_s": None,
            "speedup": None,
        })
    def speedups(kind):
        return [r["speedup"] for r in rows if r["kind"] == kind]

    return {
        "benchmark": "graph construction: direct-to-CSR vs networkx (cold)",
        "reps_best_of": REPS,
        "units": rows,
        "summary": {
            "min_regular_speedup": min(speedups("regular")),
            "max_regular_speedup": max(speedups("regular")),
            "min_pairing_speedup": min(speedups("pairing")),
            "max_pairing_speedup": max(speedups("pairing")),
            # graph_build of the xlarge-regular slice (d=4, n=16384),
            # whose family is ``regular``: the array route's win.
            "xlarge_graph_build_speedup": next(
                r["speedup"] for r in rows
                if r["unit"] == "random_regular d=4 n=16384"
            ),
            "max_direct_s_at_1m_nodes": max(
                r["direct_s"] for r in rows if r["kind"] == "huge"
            ),
        },
    }


def format_table(payload: dict) -> str:
    lines = [
        "graph construction: direct-to-CSR vs networkx (best of "
        f"{payload['reps_best_of']}, cold)",
        f"{'unit':28s} {'edges':>8s} {'direct':>9s} {'networkx':>9s} "
        f"{'speedup':>8s}",
    ]
    for row in payload["units"]:
        nx_col = (
            f"{row['networkx_s'] * 1000:7.1f}ms"
            if row["networkx_s"] is not None else f"{'—':>9s}"
        )
        speedup = (
            f"{row['speedup']:7.1f}x" if row["speedup"] is not None
            else f"{'—':>8s}"
        )
        lines.append(
            f"{row['unit']:28s} {row['edges']:8d} "
            f"{row['direct_s'] * 1000:7.1f}ms {nx_col} {speedup}"
        )
    summary = payload["summary"]
    lines.append(
        f"regular array route: {summary['min_regular_speedup']:.1f}x – "
        f"{summary['max_regular_speedup']:.1f}x; pairing: "
        f"{summary['min_pairing_speedup']:.1f}x – "
        f"{summary['max_pairing_speedup']:.1f}x; xlarge graph_build "
        f"{summary['xlarge_graph_build_speedup']:.1f}x; worst n=10^6 build "
        f"{summary['max_direct_s_at_1m_nodes']:.2f}s"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_direct_beats_networkx_5x_on_regular_slice():
    """CI gate: pairing_regular against networkx on a d-regular slice.
    Measured 15-19× on a 2-vCPU VM; 5× leaves headroom for
    shared-runner noise."""
    direct_s = _best_of(lambda: pairing_regular(4, 4096, seed=SEED))
    nx_s = _best_of(lambda: _networkx_regular(4, 4096))
    emit(
        f"graph-build gate d=4 n=4096: direct={direct_s * 1000:.1f} ms, "
        f"networkx={nx_s * 1000:.1f} ms ({nx_s / direct_s:.1f}x)"
    )
    assert nx_s / direct_s >= 5.0


def test_pairing_build_beats_stdlib_shuffle():
    """CI gate: a whole ``pairing_regular(4, 2**18)`` build against the
    stdlib shuffle of its 2^20 stubs plus the list → array copy alone,
    which were nearly all of the build before the array replay of that
    shuffle (``repro.generators.shuffle``).  Measured 3.7-4.9× on a
    2-vCPU VM, against 0.8× with the stdlib shuffle in the build; 1.5×
    leaves headroom for shared-runner noise."""
    def stdlib_shuffle():
        stubs = list(range(4 * 2**18))
        random.Random(SEED).shuffle(stubs)
        np.array(stubs, dtype=np.int64)

    build_s = _best_of(lambda: pairing_regular(4, 2**18, seed=SEED))
    shuffle_s = _best_of(stdlib_shuffle)
    emit(
        f"graph-build pairing d=4 n=2^18: build={build_s * 1000:.1f} ms, "
        f"stdlib shuffle + copy of its stubs={shuffle_s * 1000:.1f} ms "
        f"({shuffle_s / build_s:.1f}x)"
    )
    assert shuffle_s / build_s >= 1.5


def test_regular_build_beats_stdlib_shuffles():
    """CI gate: the ``regular-sweep`` workload's 36 graphs through
    ``random_regular``, whose shuffles replay on one word stream per
    generator (``repro.generators.shuffle``), against the same builds
    with the stdlib shuffles, about 70% of them before the replay.
    Measured 1.6-1.7× on a 2-vCPU VM (1.0× when the build called the
    stdlib); 1.4× leaves headroom for shared-runner noise."""
    def build(make):
        for d, n, seed in SWEEP:
            make(d, n, seed)

    # Alternate the two, so that a drift of the machine's speed moves
    # both sides' best alike.
    array_s = stdlib_s = float("inf")
    for _ in range(REPS):
        array_s = min(array_s, _best_of(
            lambda: build(lambda d, n, seed: random_regular(d, n, seed=seed)),
            reps=1,
        ))
        stdlib_s = min(stdlib_s, _best_of(
            lambda: build(_regular_build_stdlib), reps=1
        ))
    emit(
        f"graph-build regular-sweep 36 graphs: build={array_s * 1000:.1f} ms, "
        f"with stdlib shuffles={stdlib_s * 1000:.1f} ms "
        f"({stdlib_s / array_s:.2f}x)"
    )
    assert stdlib_s / array_s >= 1.4


def test_regular_array_route_beats_networkx_4x():
    """CI gate: the ``regular`` family's default route (the array
    replay of networkx's sampler plus the numpy lowering) against its
    forced networkx route, same edges and same bytes.  Measured 6-12×
    on a 2-vCPU VM (2.1-2.7× when networkx drew the edges and a dict
    pass lowered them)."""
    direct_s = _best_of(lambda: random_regular(4, 16384, seed=SEED))
    nx_s = _best_of(lambda: _networkx_regular(4, 16384))
    emit(
        f"graph-build regular d=4 n=16384: array route="
        f"{direct_s * 1000:.1f} ms, networkx={nx_s * 1000:.1f} ms "
        f"({nx_s / direct_s:.1f}x)"
    )
    assert nx_s / direct_s >= 4.0


def test_structured_direct_wins_despite_identical_coins():
    """The structured families replay the networkx path's numbering RNG
    byte for byte, so their ceiling is the removed dict walk — still
    ≥ 2× on a torus (measured ~5×)."""
    direct_s = _best_of(lambda: torus(128, 128, seed=SEED))
    nx_s = _best_of(
        lambda: torus(128, 128, seed=SEED, numbering=random_numbering(SEED))
    )
    emit(
        f"graph-build structured torus 128x128: direct="
        f"{direct_s * 1000:.1f} ms, networkx={nx_s * 1000:.1f} ms "
        f"({nx_s / direct_s:.1f}x)"
    )
    assert nx_s / direct_s >= 2.0


def test_million_node_build_in_seconds():
    """The headline the huge-regular scenario rests on: n=10^6, d=4 in
    seconds (measured 0.9-1.1 s on a 2-vCPU VM; the bound is generous
    for CI runners)."""
    started = time.perf_counter()
    graph = pairing_regular(4, 1_000_000, seed=SEED)
    elapsed = time.perf_counter() - started
    emit(f"graph-build pairing d=4 n=10^6: {elapsed:.2f} s")
    assert graph.num_edges == 2_000_000
    assert elapsed < 60.0


def ledger_entries(payload: dict):
    """The bench rows as perf-ledger entries, one per route.

    Per-unit times become pseudo-phases so ``repro-eds perf compare``
    flags graph-construction regressions cell by cell."""
    import platform

    from repro.obs.perf import LedgerEntry, git_sha

    sha = git_sha()
    stamp = time.time()
    entries = []
    for engine, key in (("direct", "direct_s"), ("networkx", "networkx_s")):
        phases = {
            row["unit"]: row[key]
            for row in payload["units"]
            if row.get(key) is not None
        }
        if not phases:
            continue
        entries.append(LedgerEntry(
            scenario="bench:graph-build",
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
        "--out", default="BENCH_graphbuild.json",
        help="where to write the machine-readable trajectory",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="also append one perf-ledger entry per route "
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
