"""The perf ledger: an append-only performance history with regression
detection.

The committed ``BENCH_*.json`` files are overwritten snapshots — they
say how fast the code is *now*, never whether it got slower.  The
ledger fixes that: every ``repro-eds perf record`` (and every benchmark
run with ``--ledger``) appends **one JSON line** to a ledger file
(default ``PERF_LEDGER.jsonl``) carrying the git SHA, scenario, engine,
per-phase self-time medians across reps, unit wall time, peak memory
(when captured), and whether numpy was importable.  Nothing is ever
rewritten, so the file *is* the performance trajectory.

``repro-eds perf compare`` then does noise-aware regression detection:
for each ``(scenario, engine)`` group the newest entry is compared
against the **median of up to N prior entries** (medians across reps at
record time, median across runs at compare time — two layers of noise
suppression).  A phase regresses when it is more than ``threshold``
slower than baseline *and* above a minimum-seconds noise floor (5 ms
phases jitter wildly; flagging them would make the CI gate cry wolf).
:func:`compare_entries` returns the verdict; the CLI exits nonzero on
any regression, which is the whole CI gate.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.session import TelemetrySession

__all__ = [
    "DEFAULT_BASELINE_RUNS",
    "DEFAULT_LEDGER_PATH",
    "DEFAULT_MIN_PHASE_S",
    "DEFAULT_THRESHOLD",
    "LEDGER_VERSION",
    "CompareReport",
    "LedgerEntry",
    "PhaseDelta",
    "append_entry",
    "compare_entries",
    "compare_ledger",
    "entry_from_sessions",
    "format_entry",
    "format_ledger",
    "git_sha",
    "read_ledger",
]

LEDGER_VERSION = 1
DEFAULT_LEDGER_PATH = "PERF_LEDGER.jsonl"
#: Regression threshold: fail when a phase is >25% over baseline.
DEFAULT_THRESHOLD = 0.25
#: Noise floor: phases where both sides are under this many seconds are
#: never flagged (their jitter exceeds any honest threshold).
DEFAULT_MIN_PHASE_S = 0.005
#: How many prior runs the baseline median aggregates, at most.
DEFAULT_BASELINE_RUNS = 5

#: Pseudo-phase name for total unit wall time in compare tables.
WALL_PHASE = "(unit wall)"


def git_sha() -> str:
    """The current commit's short SHA, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@dataclass
class LedgerEntry:
    """One recorded benchmark run — one line of the ledger."""

    scenario: str
    engine: str
    #: Median self-time per phase across the run's reps, seconds.
    phases: dict[str, float] = field(default_factory=dict)
    #: Median total unit wall time across reps, seconds.
    unit_wall_s: float = 0.0
    units: int = 0
    reps: int = 1
    #: Median across reps of the per-rep max unit peak (traced bytes);
    #: ``None`` when memory capture was off.
    mem_peak_b: int | None = None
    rss_peak_b: int | None = None
    #: Whether numpy was importable.  numpy is a required dependency,
    #: so only older ledger lines can read false.
    numpy: bool = True
    git_sha: str = "unknown"
    recorded_unix: float = 0.0
    python: str = ""
    note: str = ""

    def to_json_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "version": LEDGER_VERSION,
            "recorded_unix": round(self.recorded_unix, 3),
            "git_sha": self.git_sha,
            "scenario": self.scenario,
            "engine": self.engine,
            "reps": self.reps,
            "units": self.units,
            "numpy": self.numpy,
            "python": self.python,
            "unit_wall_s": round(self.unit_wall_s, 9),
            "phases": {
                name: round(seconds, 9)
                for name, seconds in sorted(self.phases.items())
            },
        }
        if self.mem_peak_b is not None:
            data["mem_peak_b"] = self.mem_peak_b
        if self.rss_peak_b is not None:
            data["rss_peak_b"] = self.rss_peak_b
        if self.note:
            data["note"] = self.note
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "LedgerEntry":
        return cls(
            scenario=data["scenario"],
            engine=data.get("engine", "default"),
            phases={
                str(k): float(v)
                for k, v in data.get("phases", {}).items()
            },
            unit_wall_s=float(data.get("unit_wall_s", 0.0)),
            units=int(data.get("units", 0)),
            reps=int(data.get("reps", 1)),
            mem_peak_b=data.get("mem_peak_b"),
            rss_peak_b=data.get("rss_peak_b"),
            numpy=bool(data.get("numpy", False)),
            git_sha=str(data.get("git_sha", "unknown")),
            recorded_unix=float(data.get("recorded_unix", 0.0)),
            python=str(data.get("python", "")),
            note=str(data.get("note", "")),
        )

    @property
    def group(self) -> tuple[str, str]:
        """Entries compare only within a ``(scenario, engine)`` group."""
        return (self.scenario, self.engine)


def entry_from_sessions(
    sessions: Sequence[TelemetrySession],
    *,
    scenario: str,
    engine: str,
    note: str = "",
    recorded_unix: float | None = None,
    sha: str | None = None,
) -> LedgerEntry:
    """Fold the telemetry sessions of a run's reps into one entry.

    Each session is one repetition of the same work; per-phase medians
    across reps are the first layer of noise suppression (the second is
    the baseline median in :func:`compare_entries`).
    """
    if not sessions:
        raise ValueError("entry_from_sessions needs at least one session")
    phase_samples: dict[str, list[float]] = {}
    wall_samples: list[float] = []
    mem_samples: list[float] = []
    rss_samples: list[float] = []
    for session in sessions:
        wall_samples.append(session.unit_wall_total_s())
        for name in session.metrics.histogram_names(prefix="phase."):
            phase_samples.setdefault(name[len("phase."):], []).append(
                session.metrics.summary(name)["total"]
            )
        if session.has_memory():
            mem_samples.append(
                session.metrics.summary("unit.mem_peak_b")["max"]
            )
            rss = session.metrics.summary("unit.rss_peak_b")
            if rss["count"]:
                rss_samples.append(rss["max"])
    return LedgerEntry(
        scenario=scenario,
        engine=engine,
        phases={
            name: statistics.median(samples)
            for name, samples in phase_samples.items()
        },
        unit_wall_s=statistics.median(wall_samples),
        units=max(len(s.units) for s in sessions),
        reps=len(sessions),
        mem_peak_b=(
            int(statistics.median(mem_samples)) if mem_samples else None
        ),
        rss_peak_b=(
            int(statistics.median(rss_samples)) if rss_samples else None
        ),
        git_sha=sha if sha is not None else git_sha(),
        recorded_unix=(
            recorded_unix if recorded_unix is not None else time.time()
        ),
        python=platform.python_version(),
        note=note,
    )


# ---------------------------------------------------------------------------
# Ledger file I/O
# ---------------------------------------------------------------------------


def append_entry(path: str | Path, entry: LedgerEntry) -> None:
    """Append one entry to the ledger (created on first use)."""
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry.to_json_dict(), sort_keys=False))
        handle.write("\n")


def read_ledger(path: str | Path) -> list[LedgerEntry]:
    """All ledger entries in file (i.e. chronological) order."""
    target = Path(path)
    if not target.exists():
        return []
    entries = []
    with open(target, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(LedgerEntry.from_json_dict(json.loads(line)))
    return entries


# ---------------------------------------------------------------------------
# Regression detection
# ---------------------------------------------------------------------------


@dataclass
class PhaseDelta:
    """One phase's current-vs-baseline comparison."""

    phase: str
    baseline_s: float
    current_s: float
    regressed: bool
    improved: bool

    @property
    def ratio(self) -> float:
        if self.baseline_s <= 0:
            return float("inf") if self.current_s > 0 else 1.0
        return self.current_s / self.baseline_s


@dataclass
class CompareReport:
    """The verdict for one ``(scenario, engine)`` group."""

    scenario: str
    engine: str
    baseline_runs: int
    current: LedgerEntry
    deltas: list[PhaseDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[PhaseDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self, *, threshold: float = DEFAULT_THRESHOLD) -> str:
        head = (
            f"{self.scenario} / {self.engine} — current {self.current.git_sha}"
            f" vs median of {self.baseline_runs} prior run(s), "
            f"threshold +{threshold * 100:.0f}%"
        )
        lines = [head]
        for d in sorted(self.deltas, key=lambda d: -d.current_s):
            change = (d.ratio - 1.0) * 100
            flag = (
                "  << REGRESSION" if d.regressed
                else "  (improved)" if d.improved else ""
            )
            lines.append(
                f"  {d.phase:<24} {d.baseline_s * 1000:>10.2f}ms -> "
                f"{d.current_s * 1000:>10.2f}ms  {change:+7.1f}%{flag}"
            )
        if not self.deltas:
            lines.append("  (no phases in common with the baseline)")
        lines.append(
            "  verdict: "
            + ("OK" if self.ok
               else f"{len(self.regressions)} phase(s) regressed")
        )
        return "\n".join(lines)


def compare_entries(
    baseline: Sequence[LedgerEntry],
    current: LedgerEntry,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_phase_s: float = DEFAULT_MIN_PHASE_S,
) -> CompareReport:
    """Compare *current* against the per-phase median of *baseline*.

    A phase regresses when ``current > baseline * (1 + threshold)`` and
    at least one side clears the *min_phase_s* noise floor.  Total unit
    wall time participates as the pseudo-phase ``(unit wall)``.
    """
    report = CompareReport(
        scenario=current.scenario,
        engine=current.engine,
        baseline_runs=len(baseline),
        current=current,
    )

    def judge(name: str, base_samples: list[float], now: float) -> None:
        if not base_samples:
            return
        base = statistics.median(base_samples)
        above_floor = now >= min_phase_s or base >= min_phase_s
        report.deltas.append(PhaseDelta(
            phase=name,
            baseline_s=base,
            current_s=now,
            regressed=above_floor and now > base * (1.0 + threshold),
            improved=above_floor and base > 0
            and now < base / (1.0 + threshold),
        ))

    for phase, now in sorted(current.phases.items()):
        judge(
            phase,
            [e.phases[phase] for e in baseline if phase in e.phases],
            now,
        )
    judge(
        WALL_PHASE,
        [e.unit_wall_s for e in baseline if e.unit_wall_s > 0],
        current.unit_wall_s,
    )
    return report


def compare_ledger(
    entries: Iterable[LedgerEntry],
    *,
    scenario: str | None = None,
    engine: str | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    min_phase_s: float = DEFAULT_MIN_PHASE_S,
    baseline_runs: int = DEFAULT_BASELINE_RUNS,
) -> list[CompareReport]:
    """Compare the newest entry of each ``(scenario, engine)`` group.

    Groups with fewer than two entries have nothing to compare against
    and are skipped.  *scenario* / *engine* filter the groups.
    """
    groups: dict[tuple[str, str], list[LedgerEntry]] = {}
    for entry in entries:
        if scenario is not None and entry.scenario != scenario:
            continue
        if engine is not None and entry.engine != engine:
            continue
        groups.setdefault(entry.group, []).append(entry)
    reports = []
    for _, group in sorted(groups.items()):
        if len(group) < 2:
            continue
        baseline = group[-1 - baseline_runs:-1]
        reports.append(compare_entries(
            baseline, group[-1],
            threshold=threshold, min_phase_s=min_phase_s,
        ))
    return reports


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_mem(value: int | None) -> str:
    if value is None:
        return "-"
    scaled = float(value)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if scaled < 1024 or unit == "GiB":
            return (
                f"{scaled:.0f}{unit}" if unit == "B" else f"{scaled:.1f}{unit}"
            )
        scaled /= 1024
    raise AssertionError("unreachable")


def format_entry(entry: LedgerEntry) -> str:
    """One recorded entry as a short human-readable block."""
    top = sorted(entry.phases.items(), key=lambda kv: -kv[1])[:4]
    phase_text = ", ".join(
        f"{name} {seconds * 1000:.1f}ms" for name, seconds in top
    )
    mem = (
        f", peak mem {_fmt_mem(entry.mem_peak_b)}"
        if entry.mem_peak_b is not None else ""
    )
    return (
        f"recorded {entry.scenario} / {entry.engine} @ {entry.git_sha}: "
        f"{entry.units} unit(s) x {entry.reps} rep(s), "
        f"wall {entry.unit_wall_s * 1000:.1f}ms{mem}\n"
        f"  slowest phases: {phase_text or '(none)'}"
    )


def format_ledger(entries: Sequence[LedgerEntry]) -> str:
    """The whole ledger as a chronological trajectory table."""
    if not entries:
        return "perf ledger: empty (run `repro-eds perf record` first)"
    # Imported lazily for the same cycle reason as repro.obs.report.
    from repro.analysis.report import format_table

    rows = []
    for entry in entries:
        stamp = (
            time.strftime("%Y-%m-%d %H:%M", time.gmtime(entry.recorded_unix))
            if entry.recorded_unix else "-"
        )
        dominant = max(
            entry.phases.items(), key=lambda kv: kv[1], default=("-", 0.0)
        )
        rows.append((
            stamp,
            entry.git_sha,
            entry.scenario,
            entry.engine,
            f"{entry.units}x{entry.reps}",
            f"{entry.unit_wall_s * 1000:.1f}ms",
            f"{dominant[0]} ({dominant[1] * 1000:.1f}ms)",
            _fmt_mem(entry.mem_peak_b),
            "yes" if entry.numpy else "no",
        ))
    return format_table(
        ["recorded (UTC)", "sha", "scenario", "engine", "units",
         "unit wall", "dominant phase", "peak mem", "numpy"],
        rows,
        title=f"perf ledger — {len(entries)} run(s)",
    )
