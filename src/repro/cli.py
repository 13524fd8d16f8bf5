"""Command-line interface for the reproduction harness.

Examples
--------
::

    repro-eds table1 --workers 4
    repro-eds figure 4
    repro-eds figure all --workers 4
    repro-eds rounds --degrees 1,3,5,7 --sizes 16,32,64
    repro-eds average --instances 3
    repro-eds ablation --workers 2
    repro-eds sweep --scenario default --workers 4
    repro-eds sweep --scenario large-regular --workers 8 --jsonl out.jsonl
    repro-eds sweep --no-cache --degrees 3,5 --sizes 16 --seeds 2
    repro-eds sweep --backend inline --degrees 2,3 --sizes 12 --seeds 1
    repro-eds sweep --algorithms randomized_matching --measure messages
    repro-eds sweep --scenario default --cache-max-size 64MiB
    repro-eds compare
    repro-eds compare --families regular --degrees 3,5 --sizes 12,16
    repro-eds compare --algorithms port_one,greedy_mds_line,central_optimal
    repro-eds plugins
    repro-eds messages --degrees 3,5 --sizes 16,32,64
    repro-eds cache stats
    repro-eds cache gc --max-size 64MiB --max-age 7d
    repro-eds cache clear
    repro-eds demo --family regular -d 3 -n 16 --algorithm regular_odd
    repro-eds profile --scenario large-regular --limit 6
    repro-eds profile --scenario xlarge-regular --limit 2 --optimum lower_bound
    repro-eds sweep --scenario default --trace sweep-trace.jsonl
    repro-eds -v sweep --scenario default

Global flags: ``-v/--verbose`` (debug logging for ``repro.*``) and
``-q`` (warnings only) go before the subcommand; ``--trace PATH`` on
sweep/table1/compare/figure/messages/profile writes a JSONL telemetry
sidecar (see ``repro.obs``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Sequence

from repro import api
from repro.analysis.report import format_table
from repro.engine import (
    BACKEND_NAMES,
    DEFAULT_CACHE_DIR,
    FIGURE_IDS,
    ProgressPrinter,
    ResultCache,
    figure_units,
    get_scenario,
    scenario_names,
)
from repro.engine.cache import human_bytes, parse_age, parse_size
from repro.engine.spec import OPTIMUM_MODES, GraphSpec
from repro.experiments.ablation import format_ablations, run_ablations
from repro.experiments.compare import (
    COMPARE_FAMILIES,
    comparison_units,
    format_comparison,
    run_comparison,
)
from repro.experiments.messages import (
    format_messages,
    message_complexity_sweep,
)
from repro.experiments.sweeps import (
    average_case_sweep,
    format_average_case,
    format_round_complexity,
    round_complexity_sweep,
)
from repro.experiments.table1 import format_table1, reproduce_table1
from repro.exceptions import AlgorithmContractError, SimulationError
from repro.obs import (
    TRACE_FORMATS,
    configure_logging,
    render_report,
    report_json_dict,
    telemetry,
    write_perfetto,
    write_trace,
)
from repro.obs.perf import (
    DEFAULT_BASELINE_RUNS,
    DEFAULT_LEDGER_PATH,
    DEFAULT_MIN_PHASE_S,
    DEFAULT_THRESHOLD,
    append_entry,
    compare_ledger,
    entry_from_sessions,
    format_entry,
    format_ledger,
    read_ledger,
)
from repro.registry import (
    algorithm_names,
    get_measure,
    measure_names,
)
from repro.runtime import ENGINES, use_engine

__all__ = ["main", "build_parser"]

logger = logging.getLogger(__name__)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part)


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="shard work units across N processes (default: serial)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default="auto",
        help="execution backend: 'inline' (serial, in this process), "
        "'process' (a pool of --workers processes), or 'auto' (inline "
        "for one worker, process otherwise; default)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="serve repeated work units from the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )


def _engine_cache(args: argparse.Namespace) -> ResultCache | None:
    return api.as_cache(args.cache, cache_dir=args.cache_dir)


def _add_cache_max_size_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-max-size", default=None, metavar="SIZE",
        help="after the run, evict least recently written cache "
        "records until the cache fits SIZE (opt-in gc automation; "
        "this run's records are refreshed first and evicted last)",
    )


def _cache_max_bytes(args: argparse.Namespace) -> int | None:
    """The parsed ``--cache-max-size`` cap (None when not requested)."""
    if args.cache_max_size is None:
        return None
    return parse_size(args.cache_max_size)


def _grid_measures() -> tuple[str, ...]:
    """Measures usable on declarative grids (``sweep --measure``)."""
    return tuple(
        name for name in measure_names() if get_measure(name).grid_safe
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a telemetry trace sidecar to PATH (per-unit "
        "phase spans, runtime counters, cache latencies; never written "
        "into the cache directory)",
    )
    parser.add_argument(
        "--trace-format", choices=TRACE_FORMATS, default="jsonl",
        help="trace sidecar format: 'jsonl' (one JSON object per line, "
        "jq-friendly) or 'perfetto' (Chrome trace-event JSON — open it "
        "at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--mem", action="store_true",
        help="also capture per-phase memory (tracemalloc peaks + RSS) "
        "while telemetry is active; opt-in because allocation tracking "
        "costs real time",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eds",
        description=(
            "Reproduction of Suomela, 'Distributed Algorithms for Edge "
            "Dominating Sets' (PODC 2010)."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable debug logging for the repro.* loggers "
        "(goes before the subcommand)",
    )
    parser.add_argument(
        "-q", dest="log_quiet", action="store_true",
        help="only log warnings and errors (goes before the subcommand)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="reproduce Table 1 (E1-E3)")
    t1.add_argument("--even", type=_int_list, default=(2, 4, 6, 8, 10, 12))
    t1.add_argument("--odd", type=_int_list, default=(1, 3, 5, 7, 9))
    t1.add_argument("--ks", type=_int_list, default=(1, 2, 3, 4, 5))
    _add_engine_flags(t1)
    _add_trace_flag(t1)

    fig = sub.add_parser(
        "figure",
        help="reproduce a figure (E5-E11) through the engine "
        "(parallel across figures, cached like any sweep)",
    )
    fig.add_argument("figure_id", choices=[*FIGURE_IDS, "all"])
    _add_engine_flags(fig)
    _add_trace_flag(fig)

    rounds = sub.add_parser("rounds", help="round-complexity sweep (E4)")
    rounds.add_argument("--degrees", type=_int_list, default=(1, 3, 5, 7))
    rounds.add_argument("--sizes", type=_int_list, default=(16, 32, 64))
    rounds.add_argument("--workers", type=int, default=1)

    avg = sub.add_parser("average", help="average-case sweep (E12)")
    avg.add_argument("--instances", type=int, default=5)
    avg.add_argument("--seed", type=int, default=0)
    avg.add_argument("--workers", type=int, default=1)

    abl = sub.add_parser("ablation", help="ablation studies (E13)")
    _add_engine_flags(abl)

    msg = sub.add_parser(
        "messages",
        help="message-complexity sweep (E17) through the engine",
    )
    msg.add_argument("--degrees", type=_int_list, default=(3, 5),
                     help="odd degree parameters, e.g. 3,5")
    msg.add_argument("--sizes", type=_int_list, default=(16, 32, 64))
    msg.add_argument("--seed", type=int, default=0)
    msg.add_argument(
        "--algorithms", type=_str_list, default=None,
        help="override the profiled algorithms, e.g. "
        "port_one,randomized_matching",
    )
    _add_engine_flags(msg)
    _add_trace_flag(msg)

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative grid through the parallel experiment "
        "engine (sharded workers + content-addressed result cache)",
    )
    sweep.add_argument(
        "--scenario", choices=scenario_names(), default="default",
        help="named grid to run (default: 'default')",
    )
    sweep.add_argument(
        "--degrees", type=_int_list, default=None,
        help="override the scenario's degree axis, e.g. 2,3,4",
    )
    sweep.add_argument(
        "--family", default=None,
        help="override the scenario's graph family (grid families: "
        "regular, pairing_regular, bounded) — e.g. run the "
        "xlarge-regular slice on the direct-to-CSR pairing generator",
    )
    sweep.add_argument(
        "--sizes", type=_int_list, default=None,
        help="override the scenario's size axis, e.g. 16,32,64",
    )
    sweep.add_argument(
        "--seeds", type=int, default=None,
        help="override the number of seeds per grid cell",
    )
    sweep.add_argument(
        "--algorithms", type=_str_list, default=None,
        help="override the algorithm list, e.g. port_one,bounded_degree "
        f"(registered: {','.join(algorithm_names())})",
    )
    sweep.add_argument(
        "--measure", choices=_grid_measures(), default=None,
        help="override the scenario's measure (default: its own, "
        "usually 'quality')",
    )
    sweep.add_argument(
        "--optimum", choices=OPTIMUM_MODES, default=None,
        help="override the scenario's optimum mode (e.g. 'dual_bound' "
        "for certified ratio intervals at any scale)",
    )
    sweep.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the result records as canonical JSON lines",
    )
    sweep.add_argument(
        "--quiet", action="store_true",
        help="suppress the progress/ETA lines on stderr",
    )
    _add_cache_max_size_flag(sweep)
    _add_engine_flags(sweep)
    _add_trace_flag(sweep)

    cmp = sub.add_parser(
        "compare",
        help="run the paper's algorithms head-to-head against the "
        "related-work baselines (greedy MDS on the line graph, LP "
        "rounding, forest decomposition, exact optimum) and print a "
        "side-by-side ratio/rounds/messages table",
    )
    cmp.add_argument(
        "--families", type=_str_list, default=COMPARE_FAMILIES,
        help="graph families to compare on (default: regular,bounded)",
    )
    cmp.add_argument(
        "--degrees", type=_int_list, default=(3, 4, 5),
        help="degree axis, e.g. 3,4,5",
    )
    cmp.add_argument(
        "--sizes", type=_int_list, default=(12, 16),
        help="size axis (keep within the exact-optimum limit)",
    )
    cmp.add_argument(
        "--seeds", type=int, default=2,
        help="random instances per grid cell",
    )
    cmp.add_argument(
        "--algorithms", type=_str_list, default=None,
        help="override the contenders, e.g. "
        "port_one,greedy_mds_line,central_optimal "
        f"(registered: {','.join(algorithm_names())})",
    )
    cmp.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the result records as canonical JSON lines",
    )
    cmp.add_argument(
        "--quiet", action="store_true",
        help="suppress the progress/ETA lines on stderr",
    )
    _add_cache_max_size_flag(cmp)
    _add_engine_flags(cmp)
    _add_trace_flag(cmp)

    plugins = sub.add_parser(
        "plugins",
        help="list third-party plugins discovered through the "
        "'repro.plugins' entry-point group",
    )
    del plugins  # no extra flags

    cache = sub.add_parser(
        "cache", help="maintain the content-addressed result cache"
    )
    cache.add_argument("action", choices=["stats", "clear", "gc"])
    cache.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    cache.add_argument(
        "--max-size", default=None, metavar="SIZE",
        help="gc: evict least recently written records until the cache "
        "fits SIZE (e.g. 64MiB, 1.5G, or plain bytes)",
    )
    cache.add_argument(
        "--max-age", default=None, metavar="AGE",
        help="gc: evict records older than AGE (e.g. 90s, 12h, 7d, or "
        "plain seconds)",
    )

    verify = sub.add_parser(
        "verify",
        help="run the whole reproduction (Table 1, figures, rounds) "
        "and report a single verdict",
    )
    verify.add_argument("--fast", action="store_true",
                        help="smaller parameter ranges")
    _add_engine_flags(verify)

    render = sub.add_parser(
        "render", help="print a lower-bound construction and its quotient"
    )
    render.add_argument("construction", choices=["even", "odd"])
    render.add_argument("-d", type=int, default=4)

    demo = sub.add_parser("demo", help="run one algorithm on one graph")
    demo.add_argument(
        "--family",
        choices=["regular", "pairing_regular", "cycle", "grid", "bounded"],
        default="regular",
    )
    demo.add_argument("--algorithm", choices=algorithm_names(),
                      default="bounded_degree")
    demo.add_argument("-n", type=int, default=16)
    demo.add_argument("-d", type=int, default=3,
                      help="degree (regular) / max degree (bounded)")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation engine for the run (default: 'vector', which "
        "runs algorithms without a vector kernel on the 'compiled' "
        "per-node loop)",
    )

    profile = sub.add_parser(
        "profile",
        help="run a scenario slice with telemetry on and print the "
        "per-phase p50/p95 breakdown, the slowest units, and runtime/"
        "cache counters",
    )
    profile.add_argument(
        "--scenario", choices=scenario_names(), default="default",
        help="named grid to profile (default: 'default')",
    )
    profile.add_argument(
        "--limit", type=int, default=8,
        help="profile only the first N work units of the expanded grid "
        "(default: 8; 0 means all)",
    )
    profile.add_argument(
        "--degrees", type=_int_list, default=None,
        help="override the scenario's degree axis, e.g. 2,3,4",
    )
    profile.add_argument(
        "--family", default=None,
        help="override the scenario's graph family (grid families: "
        "regular, pairing_regular, bounded)",
    )
    profile.add_argument(
        "--sizes", type=_int_list, default=None,
        help="override the scenario's size axis, e.g. 16,32,64",
    )
    profile.add_argument(
        "--seeds", type=int, default=None,
        help="override the number of seeds per grid cell",
    )
    profile.add_argument(
        "--algorithms", type=_str_list, default=None,
        help="override the algorithm list, e.g. port_one,bounded_degree "
        f"(registered: {','.join(algorithm_names())})",
    )
    profile.add_argument(
        "--measure", choices=_grid_measures(), default=None,
        help="override the scenario's measure",
    )
    profile.add_argument(
        "--optimum", choices=OPTIMUM_MODES, default=None,
        help="override the scenario's optimum mode (e.g. 'lower_bound' "
        "to profile everything except the exact optimum)",
    )
    profile.add_argument(
        "--top", type=int, default=5,
        help="how many slowest units to list (default: 5)",
    )
    profile.add_argument(
        "--workers", type=int, default=1,
        help="shard work units across N workers (default: serial)",
    )
    profile.add_argument(
        "--backend", choices=BACKEND_NAMES, default="inline",
        help="execution backend (default: 'inline' — serial timings "
        "are the easiest to interpret)",
    )
    profile.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="serve repeated units from the result cache (default: off "
        "— profiling wants to measure the computation, not cache reads)",
    )
    profile.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    profile.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation engine for the profiled units (forces the "
        "inline backend: the engine override is per-process state and "
        "does not cross into pool workers)",
    )
    profile.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="output format: the human-readable tables (default) or "
        "one machine-readable JSON document on stdout",
    )
    _add_trace_flag(profile)

    perf = sub.add_parser(
        "perf",
        help="the perf ledger: 'record' appends one benchmark run "
        "(per-phase medians across reps, peak memory, git SHA) to an "
        "append-only JSONL history, 'report' prints the trajectory, "
        "'compare' checks the newest run of each scenario/engine group "
        "against the baseline median and exits nonzero on regression",
    )
    perf.add_argument("action", choices=["record", "report", "compare"])
    perf.add_argument(
        "--ledger", default=DEFAULT_LEDGER_PATH, metavar="PATH",
        help=f"ledger file (default: {DEFAULT_LEDGER_PATH})",
    )
    perf.add_argument(
        "--scenario", choices=scenario_names(), default=None,
        help="scenario to record, or to filter report/compare by "
        "(record default: 'default')",
    )
    perf.add_argument(
        "--limit", type=int, default=4,
        help="record only the first N work units of the expanded grid "
        "(default: 4; 0 means all)",
    )
    perf.add_argument(
        "--reps", type=int, default=3,
        help="repetitions per record; the ledger stores per-phase "
        "medians across reps (default: 3)",
    )
    perf.add_argument(
        "--degrees", type=_int_list, default=None,
        help="override the scenario's degree axis, e.g. 2,3,4",
    )
    perf.add_argument(
        "--family", default=None,
        help="override the scenario's graph family (grid families: "
        "regular, pairing_regular, bounded)",
    )
    perf.add_argument(
        "--sizes", type=_int_list, default=None,
        help="override the scenario's size axis, e.g. 16,32,64",
    )
    perf.add_argument(
        "--seeds", type=int, default=None,
        help="override the number of seeds per grid cell",
    )
    perf.add_argument(
        "--algorithms", type=_str_list, default=None,
        help="override the algorithm list, e.g. port_one,bounded_degree",
    )
    perf.add_argument(
        "--measure", choices=_grid_measures(), default=None,
        help="override the scenario's measure",
    )
    perf.add_argument(
        "--optimum", choices=OPTIMUM_MODES, default=None,
        help="override the scenario's optimum mode",
    )
    perf.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation engine to record under (also the compare "
        "filter); entries only ever compare within one scenario/engine "
        "group",
    )
    perf.add_argument(
        "--mem", action="store_true",
        help="record peak memory (tracemalloc + RSS) into the entry",
    )
    perf.add_argument(
        "--note", default="",
        help="free-form note stored on the recorded entry",
    )
    perf.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="compare: flag phases more than this fraction over "
        f"baseline (default: {DEFAULT_THRESHOLD:g} = "
        f"{DEFAULT_THRESHOLD:.0%} slower)".replace("%", "%%"),
    )
    perf.add_argument(
        "--min-phase-ms", type=float, default=DEFAULT_MIN_PHASE_S * 1000,
        help="compare: ignore phases where both sides are under this "
        f"many milliseconds (noise floor; default: "
        f"{DEFAULT_MIN_PHASE_S * 1000:g})",
    )
    perf.add_argument(
        "--baseline-runs", type=int, default=DEFAULT_BASELINE_RUNS,
        help="compare: baseline is the median of up to N prior runs "
        f"(default: {DEFAULT_BASELINE_RUNS})",
    )

    return parser


def _engines_line() -> str:
    """One line naming every engine, the default first."""
    return "engines: " + ", ".join(ENGINES)


def _demo_graph(args: argparse.Namespace) -> tuple[GraphSpec, str]:
    """The demo's graph as a spec, with its display label."""
    if args.family in ("regular", "pairing_regular"):
        n = args.n + (args.n * args.d) % 2  # a d-regular graph needs n*d even
        n = max(n, args.d + 1 + (args.d + 1) % 2)
        kind = "random" if args.family == "regular" else "pairing"
        return (
            api.graph(args.family, seed=args.seed, d=args.d, n=n),
            f"{kind} {args.d}-regular, n={n}",
        )
    if args.family == "cycle":
        return (
            api.graph("cycle", seed=args.seed, n=args.n),
            f"cycle, n={args.n}",
        )
    if args.family == "grid":
        side = max(2, int(args.n ** 0.5))
        return (
            api.graph("grid", seed=args.seed, rows=side, cols=side),
            f"grid {side}x{side}",
        )
    return (
        api.graph("bounded", seed=args.seed, n=args.n, max_degree=args.d),
        f"random bounded Δ={args.d}, n={args.n}",
    )


def _run_demo(args: argparse.Namespace) -> str:
    """One ``quality`` unit through the engine, printed as one row.

    Any registered algorithm is demo-able by name; randomised ones draw
    their coins from the unit's content address, like every unit.
    """
    spec, label = _demo_graph(args)
    with use_engine(args.engine):
        record = api.run_one(args.algorithm, spec, label=label)
    if record.has_interval:
        opt_header, ratio_header = "opt ∈", "ratio ∈"
        opt = f"[{record.optimum_lower}, {record.optimum_upper}]"
        ratio = (
            f"[{float(record.ratio_lo):.4f}, {float(record.ratio_hi):.4f}]"
        )
    else:
        opt_header = "opt" + ("" if record.optimum_exact else " (LB)")
        ratio_header = "ratio"
        opt, ratio = record.optimum, f"{float(record.ratio):.4f}"
    table = format_table(
        ["graph", "algorithm", "n", "m", "|D|", opt_header, ratio_header,
         "rounds"],
        [
            (
                record.graph_label,
                record.algorithm,
                record.num_nodes,
                record.num_edges,
                record.solution_size,
                opt,
                ratio,
                record.rounds,
            )
        ],
        title="demo run",
    )
    return f"{table}\n{_engines_line()}"


def _write_trace_file(
    path: str, session, *, fmt: str, meta: dict
) -> None:
    """Write the trace sidecar in the requested ``--trace-format``."""
    if fmt == "perfetto":
        events = write_perfetto(path, session, meta=meta)
        logger.info(
            "wrote perfetto trace (%d event(s)) to %s — open it at "
            "https://ui.perfetto.dev", events, path,
        )
    else:
        lines = write_trace(path, session, meta=meta)
        logger.info(
            "wrote telemetry trace (%d line(s)) to %s", lines, path
        )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.log_quiet)

    trace_path = getattr(args, "trace", None)
    if trace_path and args.command != "profile":
        # Run the whole command inside a telemetry session and write the
        # trace sidecar after.  ``profile`` owns its session instead, so
        # it can render the report before writing the trace.
        with telemetry(capture_memory=getattr(args, "mem", False)) as session:
            code = _dispatch(args)
        _write_trace_file(
            trace_path, session,
            fmt=args.trace_format, meta={"command": args.command},
        )
        return code
    if (
        getattr(args, "mem", False)
        and args.command not in ("profile", "perf")
    ):
        # Without a session there is nothing for the captured memory to
        # land in; say so instead of silently ignoring the flag.
        print(
            "note: --mem has no effect without --trace "
            "(memory telemetry needs an active telemetry session)",
            file=sys.stderr,
        )
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "table1":
        rows = reproduce_table1(
            args.even, args.odd, args.ks,
            workers=max(1, args.workers), cache=_engine_cache(args),
            backend=args.backend,
        )
        print(format_table1(rows))
        if not all(r.tight for r in rows):
            print("ERROR: some rows are not tight", file=sys.stderr)
            return 1
    elif args.command == "figure":
        return _run_figures(args)
    elif args.command == "rounds":
        rows = round_complexity_sweep(
            args.degrees, args.sizes, workers=args.workers
        )
        print(format_round_complexity(rows))
        if not all(r.matches_prediction for r in rows):
            print("ERROR: round predictions violated", file=sys.stderr)
            return 1
    elif args.command == "average":
        rows = average_case_sweep(
            instances=args.instances, seed=args.seed, workers=args.workers
        )
        print(format_average_case(rows))
    elif args.command == "ablation":
        print(format_ablations(run_ablations(
            workers=max(1, args.workers), cache=_engine_cache(args),
            backend=args.backend,
        )))
    elif args.command == "messages":
        return _run_messages(args)
    elif args.command == "sweep":
        return _run_sweep(args)
    elif args.command == "compare":
        return _run_compare(args)
    elif args.command == "plugins":
        from repro.plugins import format_plugins

        print(format_plugins())
    elif args.command == "cache":
        return _run_cache(args)
    elif args.command == "verify":
        return _run_verify(
            fast=args.fast,
            workers=max(1, args.workers),
            cache=_engine_cache(args),
            backend=args.backend,
        )
    elif args.command == "render":
        print(_run_render(args))
    elif args.command == "demo":
        try:
            print(_run_demo(args))
        except (SimulationError, AlgorithmContractError) as exc:
            print(f"ERROR: {exc}", file=sys.stderr)
            return 2
    elif args.command == "profile":
        return _run_profile(args)
    elif args.command == "perf":
        return _run_perf(args)
    return 0


def _run_figures(args: argparse.Namespace) -> int:
    """Reproduce figures as engine work units (E5-E11)."""
    ids = None if args.figure_id == "all" else [args.figure_id]
    report = api.run_sweep(
        figure_units(ids),
        workers=max(1, args.workers),
        cache=_engine_cache(args),
        backend=args.backend,
    )
    for record in report.records:
        print(record.extra["rendering"])
        print(f"[{record.extra['figure_id']}] verified claims:")
        for claim in record.extra["checks"]:
            print(f"  ✓ {claim}")
        print()
    return 0


def _run_messages(args: argparse.Namespace) -> int:
    """Run the E17 message-complexity sweep through the engine."""
    algorithms = (
        args.algorithms if args.algorithms is not None
        else ("port_one", "regular_odd", "bounded_degree")
    )
    unknown = set(algorithms) - set(algorithm_names())
    if unknown:
        print(f"ERROR: unknown algorithms {sorted(unknown)}", file=sys.stderr)
        return 2
    rows = message_complexity_sweep(
        args.degrees, args.sizes, args.seed,
        algorithms=algorithms,
        workers=max(1, args.workers),
        cache=_engine_cache(args),
        backend=args.backend,
    )
    if not rows:
        print("ERROR: the grid expanded to zero feasible work units",
              file=sys.stderr)
        return 2
    print(format_messages(rows))
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    """Run the paper-vs-baselines comparison and print the table.

    The table goes to stdout and everything run-dependent (progress,
    backend decision, cache accounting) to stderr, so the stdout bytes
    are identical for every backend, worker count, and cache state.
    """
    unknown_families = set(args.families) - set(COMPARE_FAMILIES)
    if unknown_families:
        print(
            f"ERROR: unknown comparison families "
            f"{sorted(unknown_families)}; available: "
            f"{','.join(COMPARE_FAMILIES)}",
            file=sys.stderr,
        )
        return 2
    if args.algorithms is not None:
        unknown = set(args.algorithms) - set(algorithm_names())
        if unknown:
            print(f"ERROR: unknown algorithms {sorted(unknown)}",
                  file=sys.stderr)
            return 2
    try:
        cache_max = _cache_max_bytes(args)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2

    units = comparison_units(
        args.families, args.degrees, args.sizes, args.seeds,
        algorithms=args.algorithms,
    )
    if not units:
        print("ERROR: the grid expanded to zero feasible work units",
              file=sys.stderr)
        return 2
    cache = _engine_cache(args)
    outcome = run_comparison(
        args.families, args.degrees, args.sizes, args.seeds,
        algorithms=args.algorithms,
        units=units,
        workers=max(1, args.workers),
        cache=cache,
        backend=args.backend,
        cache_max_size=cache_max,
        progress=(
            None if args.quiet
            else ProgressPrinter(len(units), label="compare")
        ),
        jsonl=args.jsonl,
    )
    print(format_comparison(outcome.rows))
    report = outcome.execution
    print(report.backend_line(), file=sys.stderr)
    if cache is not None:
        print(f"{report.cache_line()} [dir: {args.cache_dir}]",
              file=sys.stderr)
        if report.gc is not None:
            print(report.gc_line(), file=sys.stderr)
    else:
        print("cache: disabled", file=sys.stderr)
    if args.jsonl:
        print(f"wrote {len(report.store)} records to {args.jsonl}",
              file=sys.stderr)
    return 0


def _resolved_scenario(args: argparse.Namespace):
    """The named scenario with the shared axis-override flags applied.

    ``sweep``, ``profile`` and ``perf record`` expose the same override
    surface (family/degrees/sizes/seeds/algorithms/measure/optimum);
    this is the one place it is interpreted.  Raises
    :class:`ValueError` with a user-facing message on bad overrides.
    """
    scenario = get_scenario(args.scenario)
    overrides: dict[str, object] = {}
    if getattr(args, "family", None) is not None:
        overrides["family"] = args.family
    if args.degrees is not None:
        overrides["degrees"] = args.degrees
    if args.sizes is not None:
        overrides["sizes"] = args.sizes
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if args.measure is not None:
        overrides["measure"] = args.measure
    if getattr(args, "optimum", None) is not None:
        overrides["optimum"] = args.optimum
    if args.algorithms is not None:
        unknown = set(args.algorithms) - set(algorithm_names())
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}")
        overrides["algorithms"] = args.algorithms
    if overrides:
        return scenario.override(**overrides)
    return scenario


def _run_sweep(args: argparse.Namespace) -> int:
    """Expand a scenario grid and run it through the experiment engine."""
    try:
        scenario = _resolved_scenario(args)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2

    units = scenario.expand()
    if not units:
        print("ERROR: the grid expanded to zero feasible work units",
              file=sys.stderr)
        return 2

    try:
        cache_max = _cache_max_bytes(args)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    cache = _engine_cache(args)
    progress = (
        None if args.quiet
        else ProgressPrinter(len(units), label=f"sweep:{scenario.name}")
    )
    report = api.run_sweep(
        units, workers=max(1, args.workers), cache=cache, progress=progress,
        backend=args.backend, cache_max_size=cache_max,
    )
    print(report.store.format_summary(
        title=f"sweep '{scenario.name}' — {len(units)} work units"
    ))
    print(report.backend_line())
    if cache is not None:
        print(f"{report.cache_line()} [dir: {args.cache_dir}]")
        if report.gc is not None:
            print(report.gc_line())
    else:
        print("cache: disabled")
    if args.jsonl:
        report.store.to_jsonl(args.jsonl)
        print(f"wrote {len(report.store)} records to {args.jsonl}")
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """Profile a scenario slice and print the per-phase breakdown.

    Cached results would hide the phases being profiled, so the cache
    defaults to off here; ``--cache`` opts back in (the phase table then
    mostly shows cache read latencies, which is occasionally the point).
    """
    try:
        scenario = _resolved_scenario(args)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2

    units = scenario.expand()
    if not units:
        print("ERROR: the grid expanded to zero feasible work units",
              file=sys.stderr)
        return 2
    if args.limit > 0:
        units = units[: args.limit]

    backend = args.backend
    workers = max(1, args.workers)
    if args.engine is not None and (backend != "inline" or workers != 1):
        # The override is a ContextVar; pool workers would ignore it.
        print(
            f"note: --engine {args.engine} forces the inline backend "
            "(the engine override does not cross into pool workers)",
            file=sys.stderr,
        )
        backend = "inline"
        workers = 1

    with telemetry(capture_memory=args.mem) as session, \
            use_engine(args.engine):
        api.run_sweep(
            units,
            workers=workers,
            cache=_engine_cache(args),
            backend=backend,
            progress=ProgressPrinter(
                len(units), label=f"profile:{scenario.name}"
            ),
        )
    engine_note = (
        "" if args.engine is None else f", engine={args.engine}"
    )
    title = (
        f"profile: {scenario.name} ({len(units)} unit(s), "
        f"backend={backend}{engine_note})"
    )
    if args.format == "json":
        import json as json_module

        print(json_module.dumps(
            report_json_dict(session, top=args.top, title=title)
        ))
    else:
        print(render_report(session, top=args.top, title=title))
        print(_engines_line())
    if args.trace:
        _write_trace_file(
            args.trace, session,
            fmt=args.trace_format, meta={"command": "profile"},
        )
    return 0


def _run_perf(args: argparse.Namespace) -> int:
    """The perf ledger: record a benchmark run, report, or compare."""
    if args.action == "record":
        return _run_perf_record(args)
    entries = read_ledger(args.ledger)
    if args.action == "report":
        if args.scenario is not None:
            entries = [e for e in entries if e.scenario == args.scenario]
        if args.engine is not None:
            entries = [e for e in entries if e.engine == args.engine]
        print(format_ledger(entries))
        return 0
    # compare
    if not entries:
        print(f"ERROR: no perf ledger at {args.ledger} "
              "(run `repro-eds perf record` first)", file=sys.stderr)
        return 2
    reports = compare_ledger(
        entries,
        scenario=args.scenario,
        engine=args.engine,
        threshold=args.threshold,
        min_phase_s=args.min_phase_ms / 1000.0,
        baseline_runs=max(1, args.baseline_runs),
    )
    if not reports:
        print(
            "perf compare: no scenario/engine group has two or more "
            "recorded runs yet — nothing to compare"
        )
        return 0
    for report in reports:
        print(report.format(threshold=args.threshold))
        print()
    regressed = [r for r in reports if not r.ok]
    if regressed:
        groups = ", ".join(
            f"{r.scenario}/{r.engine}" for r in regressed
        )
        print(f"VERDICT: perf regression in {groups}", file=sys.stderr)
        return 1
    print(f"VERDICT: no perf regressions across {len(reports)} group(s)")
    return 0


def _run_perf_record(args: argparse.Namespace) -> int:
    """Run a scenario slice ``--reps`` times and append a ledger entry.

    Records always run on the inline backend with the cache off: the
    point is to measure the computation, and serial self-times are the
    comparable quantity.  Medians across reps go into the entry.
    """
    if args.scenario is None:
        args.scenario = "default"
    try:
        scenario = _resolved_scenario(args)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    units = scenario.expand()
    if not units:
        print("ERROR: the grid expanded to zero feasible work units",
              file=sys.stderr)
        return 2
    if args.limit > 0:
        units = units[: args.limit]

    sessions = []
    for rep in range(max(1, args.reps)):
        with telemetry(capture_memory=args.mem) as session, \
                use_engine(args.engine):
            api.run_sweep(units, cache=None, backend="inline")
        sessions.append(session)
        logger.info(
            "perf record rep %d/%d: %d unit(s) in %.3fs",
            rep + 1, max(1, args.reps), len(units),
            session.unit_wall_total_s(),
        )
    entry = entry_from_sessions(
        sessions,
        scenario=scenario.name,
        engine=args.engine or "default",
        note=args.note,
    )
    append_entry(args.ledger, entry)
    print(format_entry(entry))
    print(f"appended to {args.ledger}")
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """Cache maintenance: stats, clear everything, or policy eviction."""
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        print(cache.stats().format())
        return 0
    if args.action == "gc":
        if args.max_size is None and args.max_age is None:
            print("ERROR: cache gc needs --max-size and/or --max-age",
                  file=sys.stderr)
            return 2
        try:
            max_bytes = (
                None if args.max_size is None else parse_size(args.max_size)
            )
            max_age = (
                None if args.max_age is None else parse_age(args.max_age)
            )
        except ValueError as exc:
            print(f"ERROR: {exc}", file=sys.stderr)
            return 2
        report = cache.gc(max_bytes=max_bytes, max_age=max_age)
        print(f"{report.format()} [dir: {args.cache_dir}]")
        return 0
    stats = cache.stats()
    removed = cache.clear()
    print(
        f"removed {removed} cached record(s) "
        f"({human_bytes(stats.total_bytes)}) from {args.cache_dir}"
    )
    return 0


def _run_verify(
    *,
    fast: bool,
    workers: int = 1,
    cache: ResultCache | None = None,
    backend: str = "auto",
) -> int:
    """Run every headline check; return 0 only if all pass."""
    failures: list[str] = []

    even = (2, 4) if fast else (2, 4, 6, 8, 10, 12)
    odd = (1, 3) if fast else (1, 3, 5, 7, 9)
    ks = (1, 2) if fast else (1, 2, 3, 4, 5)
    rows = reproduce_table1(even, odd, ks, workers=workers, cache=cache,
                            backend=backend)
    tight = sum(1 for r in rows if r.tight)
    print(f"[table1] {tight}/{len(rows)} rows tight")
    if tight != len(rows):
        failures.append("table1")

    try:
        figure_report = api.run_sweep(
            figure_units(), workers=workers, cache=cache, backend=backend
        )
        for record in figure_report.records:
            print(f"[figure {record.extra['figure']}] "
                  f"{len(record.extra['checks'])} claims verified")
    except Exception as exc:  # pragma: no cover - defensive
        print(f"[figures] FAILED: {exc}")
        failures.append("figures")

    sweep = round_complexity_sweep(
        odd_degrees=(1, 3) if fast else (1, 3, 5, 7),
        sizes=(12,) if fast else (16, 32, 64),
        workers=workers,
        cache=cache,
        backend=backend,
    )
    ok = sum(1 for r in sweep if r.matches_prediction)
    print(f"[rounds] {ok}/{len(sweep)} round counts match closed forms")
    if ok != len(sweep):
        failures.append("rounds")

    from repro.experiments.optimality import recompute_lower_bounds

    bounds = recompute_lower_bounds(
        even_degrees=(2, 4) if fast else (2, 4, 6, 8),
        odd_degrees=(1, 3) if fast else (1, 3, 5),
    )
    matched = sum(1 for r in bounds if r.matches)
    print(
        f"[lower bounds] {matched}/{len(bounds)} recomputed by orbit "
        f"search match Table 1"
    )
    if matched != len(bounds):
        failures.append("lower bounds")

    if failures:
        print(f"\nVERDICT: FAILED ({', '.join(failures)})")
        return 1
    print("\nVERDICT: all reproduction checks passed")
    return 0


def _run_render(args: argparse.Namespace) -> str:
    from repro.lowerbounds import build_even_lower_bound, build_odd_lower_bound
    from repro.portgraph.render import render_edge_set, render_graph

    d = args.d
    if args.construction == "even":
        if d % 2:
            d += 1
        instance = build_even_lower_bound(d)
    else:
        if d % 2 == 0:
            d += 1
        instance = build_odd_lower_bound(d)

    parts = [
        render_graph(
            instance.graph,
            title=f"Theorem {'1' if args.construction == 'even' else '2'} "
            f"construction, d = {d}",
        ),
        "",
        render_edge_set(instance.optimum, title="optimal EDS D*:"),
        "",
        render_graph(instance.quotient, title="quotient multigraph M:"),
        "",
        f"forced ratio: {instance.forced_ratio} "
        f"({float(instance.forced_ratio):.4f})",
    ]
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
