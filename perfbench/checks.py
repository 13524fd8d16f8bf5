"""Correctness checks on the records of one pass.

A unit fails when it raised, or when its record

* is not the record of that unit (key or algorithm differ),
* has a round count other than the one pinned for its algorithm and
  degree (rounds of these algorithms do not depend on n),
* on ``dual_bound`` units, breaks ``optimum_lower <= optimum_upper <=
  solution_size`` or ``ratio_lo <= ratio_hi``,
* at the default seed, differs from the pinned ``(num_edges,
  solution_size, rounds)`` of that unit (the bound fields stay out: the
  certified-bounds work changes them on purpose),
* differs, byte for byte, between the cold pass and any warm pass, or
  between the untraced and the traced run.

``pins.json`` holds the pinned values; ``run.py --write-pins`` rewrites
it from the current program.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

__all__ = ["PINS_PATH", "canary_caught", "load_pins", "triple",
           "unit_failures"]

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def triple(record: dict) -> list[int]:
    return [record["num_edges"], record["solution_size"], record["rounds"]]


def _record_failure(workload, unit: dict, record: dict, pins: dict,
                    pinned_triple: list[int] | None) -> str | None:
    if record.get("key") != unit["key"] or (
        record.get("algorithm") != unit["algorithm"]
    ):
        return "record belongs to another unit"
    rounds = pins["rounds"].get(unit["algorithm"], {}).get(str(unit["d"]))
    if record["rounds"] != rounds:
        return f"rounds {record['rounds']}, pinned {rounds}"
    if workload.optimum == "dual_bound":
        lower = record.get("optimum_lower", 0)
        upper = record.get("optimum_upper", 0)
        if not 0 < lower <= upper <= record["solution_size"]:
            return f"bounds out of order: {lower} <= {upper} <= size"
        lo = record["ratio_lo_num"] * record["ratio_hi_den"]
        hi = record["ratio_hi_num"] * record["ratio_lo_den"]
        if lo > hi:
            return "ratio_lo > ratio_hi"
    if pinned_triple is not None and triple(record) != pinned_triple:
        return (f"(edges, size, rounds) {triple(record)}, "
                f"pinned {pinned_triple}")
    return None


def unit_failures(workload, seed: int, result: dict, pins: dict,
                  reference: list[str] | None = None) -> dict[int, str]:
    """Unit index -> the first check it fails, for one child's result.

    *reference* is the records of the run this one repeats (the cold
    pass, for a warm child; the untraced pass, for the traced one),
    which these must equal byte for byte.
    """
    units = result["units"]
    if "error" in result:
        return dict.fromkeys(range(len(units)), result["error"])
    records = result["records"]
    if len(records) != len(units) or (
        result.get("computed", len(units)) != len(units)
    ):
        return dict.fromkeys(range(len(units)), "pass served no record")
    pinned = (
        pins["triples"].get(workload.name)
        if seed == pins["default_seed"] else None
    )
    failures: dict[int, str] = {}
    for i, (unit, text) in enumerate(zip(units, records)):
        reason = _record_failure(workload, unit, json.loads(text), pins,
                                 pinned[i] if pinned else None)
        if reason is not None:
            failures[i] = reason
    if reference is not None:
        for i, (text, ref) in enumerate(zip(records, reference)):
            if text != ref:
                failures.setdefault(i, "differs from the run it repeats")
    for i in result.get("warm_mismatch", ()):
        failures.setdefault(i, "warm re-runs disagree")
    if any(hits != len(units) for hits in result.get("warm_hits", ())):
        for i in range(len(units)):
            failures.setdefault(i, "warm pass missed the cache")
    return failures


def canary_caught(workload, seed: int, result: dict, pins: dict) -> bool:
    """True when a copy of *result* with one corrupted record fails.

    The corruption (one more round on the first unit) is caught at every
    seed, so every run shows that the checks can fail.
    """
    if "error" in result:
        return True
    corrupt = copy.deepcopy(result)
    record = json.loads(corrupt["records"][0])
    record["rounds"] += 1
    corrupt["records"][0] = json.dumps(record, sort_keys=True)
    return 0 in unit_failures(workload, seed, corrupt, pins)
