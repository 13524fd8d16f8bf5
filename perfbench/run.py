"""Benchmark of the edge-dominating-set reproduction, end to end.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
Every measurement happens in a fresh interpreter (``child.py``), on the
``inline`` backend, with a fresh cache directory under
``.perfbench-tmp/`` that is removed afterwards.

``--trace 0`` repeats untraced cold passes, each followed by warm
children that re-run the same units against its cache, for about
``--seconds`` seconds, and reports each end-to-end metric as the median
over the children that measure it.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of ``layers.py``, the set-up split from
``python -X importtime``, and the tracing overhead.

Both modes check every record (``checks.py``) and print, as the last
line of stdout, ``{"correct", "attempted", "failed", "metrics"}``.
``--write-pins`` instead rewrites ``pins.json`` from the current program.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import PINS_PATH, canary_caught, load_pins, triple, unit_failures
from child import SETUP_MARKER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"

#: Warm children after each untraced pass (see ``child.WARM_HITS``).
WARM_CHILDREN = 3
#: ``-X importtime`` children per traced run.
IMPORTTIME_SAMPLES = 3
#: Every child must end before the run is this old.
DEADLINE_S = 170.0
DEFAULT_SEED = 0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "port_one_s": "s",
    "bounded_degree_s": "s",
    "peak_rss_mib": "MiB",
    "warm_wall_s": "s",
}


class ChildFailed(RuntimeError):
    """A child could not set up (or died): there is nothing to measure."""


class Run:
    """Spawns the children of one benchmark run inside its deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        TMP.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
        self._dirs = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.tmp / f"cache-{self._dirs}"

    def child(self, role: str, *, cache_dir: Path | None = None,
              importtime: bool = False) -> tuple[dict, str]:
        """Run one child; returns its JSON result and its stderr.

        Without *cache_dir* the child gets a fresh one, removed when the
        child ends.
        """
        own_dir = cache_dir is None
        if own_dir:
            cache_dir = self.fresh_dir()
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "child.py"), role, self.workload, str(self.seed),
                str(SRC), str(cache_dir)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{role} child exceeded the deadline") from exc
        finally:
            if own_dir:
                shutil.rmtree(cache_dir, ignore_errors=True)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            raise ChildFailed(f"{role} child exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def algorithm_s(result: dict, algorithm: str) -> float:
    """Summed unit wall time of one algorithm's units in one pass."""
    return sum(
        seconds
        for seconds, unit in zip(result["unit_s"], result["units"])
        if unit["algorithm"] == algorithm
    )


def import_split(stderr: str) -> tuple[float, float]:
    """Self import time of ``repro.*`` and of everything else, in seconds.

    Only the ``-X importtime`` lines after the set-up marker count, so
    interpreter boot stays out.
    """
    repro_us = other_us = 0
    started = False
    for line in stderr.splitlines():
        if line == SETUP_MARKER:
            started = True
            continue
        fields = line.split("|")
        if not started or len(fields) != 3 or ":" not in fields[0]:
            continue
        try:
            self_us = int(fields[0].split(":", 1)[1])
        except ValueError:
            continue  # the column header
        name = fields[2].strip()
        if name == "repro" or name.startswith("repro."):
            repro_us += self_us
        else:
            other_us += self_us
    return repro_us / 1e6, other_us / 1e6


def check(run: Run, results: list[tuple[dict, list[str] | None]],
          pins: dict) -> tuple[int, int]:
    """(attempted, failed) units over (result, reference records) pairs.

    Logs the first failures of each result.
    """
    workload = WORKLOADS[run.workload]
    attempted = failed = 0
    for result, reference in results:
        failures = unit_failures(workload, run.seed, result, pins, reference)
        attempted += len(result["units"])
        failed += len(failures)
        for i, reason in sorted(failures.items())[:5]:
            algorithm = result["units"][i]["algorithm"]
            log(f"unit {i} ({algorithm}) failed: {reason}")
    return attempted, failed


def measure_untraced(run: Run, seconds: float, pins: dict) -> dict:
    """Pass children, each followed by ``WARM_CHILDREN`` warm children.

    Every child also gives a ``setup_s`` sample, so set-up and warm
    samples are spread over the whole run rather than taken at one time.
    """
    run.child("setup")  # compiles bytecode and warms the page cache
    passes: list[dict] = []
    warms: list[tuple[dict, list[str]]] = []
    started = run.elapsed()
    while True:
        cache_dir = run.fresh_dir()
        cold = run.child("pass", cache_dir=cache_dir)[0]
        passes.append(cold)
        if "error" not in cold:
            for _ in range(WARM_CHILDREN):
                warm = run.child("warm", cache_dir=cache_dir)[0]
                warms.append((warm, cold["records"]))
        shutil.rmtree(cache_dir, ignore_errors=True)
        spent = run.elapsed() - started
        if spent + spent / len(passes) > seconds:
            break
    attempted, failed = check(run, [(p, None) for p in passes] + warms, pins)
    good = [p for p in passes if "error" not in p]
    good_warm = [w for w, _ in warms if "error" not in w]
    if not good or not good_warm:
        raise ChildFailed("every cold or every warm pass raised")
    median = statistics.median
    setups = [p["setup_s"] for p in passes] + [w["setup_s"] for w, _ in warms]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(p["wall_s"] for p in good),
        "port_one_s": median(algorithm_s(p, "port_one") for p in good),
        "bounded_degree_s": median(
            algorithm_s(p, "bounded_degree") for p in good
        ),
        "peak_rss_mib": median(p["peak_rss_mib"] for p in good),
        "warm_wall_s": median(
            statistics.fmean(w["warm_s"]) for w in good_warm
        ),
    }
    log(f"{len(passes)} pass(es), {len(warms)} warm child(ren)")
    return {
        "correct": failed == 0 and canary_caught(
            WORKLOADS[run.workload], run.seed, good[0], pins
        ),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def measure_traced(run: Run, pins: dict) -> dict:
    run.child("setup")  # compiles bytecode and warms the page cache
    splits = []
    for _ in range(IMPORTTIME_SAMPLES):
        result, stderr = run.child("setup", importtime=True)
        splits.append((*import_split(stderr), result["expand_s"]))
    untraced = run.child("pass")[0]
    traced = run.child("traced")[0]
    attempted, failed = check(
        run, [(untraced, None), (traced, untraced.get("records"))], pins
    )
    correct = failed == 0 and canary_caught(
        WORKLOADS[run.workload], run.seed, untraced, pins
    )
    metrics: dict[str, float] = {}
    if "error" not in traced:
        metrics.update(traced["layers"])
        for entry in traced["absent"]:
            log(f"absent entry point (zero calls): {entry}")
        other = metrics["engine.other_s"]
        if other < -1e-3:
            log(f"spans overlap: engine.other_s = {other:.6f} s")
            correct = False
        metrics["trace.wall_s"] = traced["window_s"]
    if "error" not in traced and "error" not in untraced:
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    median = statistics.median
    metrics["setup.import_repro_s"] = median(s[0] for s in splits)
    metrics["setup.import_deps_s"] = median(s[1] for s in splits)
    metrics["setup.expand_s"] = median(s[2] for s in splits)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: (v, layer_unit(k)) for k, v in metrics.items()},
    }


def write_pins() -> None:
    """Pin round counts and default-seed triples from the current program."""
    rounds: dict[str, dict[str, int]] = {}
    triples: dict[str, list[list[int]]] = {}
    for name in WORKLOADS:
        run = Run(name, DEFAULT_SEED)
        try:
            result = run.child("pass")[0]
        finally:
            run.close()
        if "error" in result:
            raise ChildFailed(f"{name}: {result['error']}")
        records = [json.loads(text) for text in result["records"]]
        triples[name] = [triple(record) for record in records]
        for unit, record in zip(result["units"], records):
            pinned = rounds.setdefault(unit["algorithm"], {})
            if pinned.setdefault(str(unit["d"]), record["rounds"]) != (
                record["rounds"]
            ):
                raise ChildFailed(
                    f"{unit['algorithm']} rounds differ between graphs of "
                    f"degree {unit['d']}"
                )
        log(f"pinned {name}: {len(records)} unit(s)")
    pins = {"default_seed": DEFAULT_SEED, "rounds": rounds, "triples": triples}
    text = json.dumps(pins, indent=1, sort_keys=True)
    # One line per pinned triple keeps the file short and diffs readable.
    text = re.sub(r"\[\s+(\d+),\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2, \3]", text)
    PINS_PATH.write_text(text + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program to measure: {SRC / 'repro'} is missing")
        return 2
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    run = Run(args.workload, args.seed)
    pins = load_pins()
    try:
        if args.trace:
            result = measure_traced(run, pins)
        else:
            result = measure_untraced(run, args.seconds, pins)
    except ChildFailed as exc:
        log(f"run aborted: {exc}")
        return 1
    finally:
        run.close()
    for name, (value, unit) in result["metrics"].items():
        log(f"{name:32s} {value:14.6f} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
