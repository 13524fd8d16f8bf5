"""Render a telemetry session as a human-readable profile report.

The centerpiece is the per-phase table: for each instrumented phase
(``graph_build``, ``simulate``, ``optimum``, ``measure:quality``, …) it
shows sample count, p50/p95/max *self* time per unit, the total, and the
share of all unit wall time.  Self times (durations minus nested child
spans) are what make the table sum up: phases plus the ``(unaccounted)``
residual reconcile with total unit wall time instead of double-counting
the optimum inside its enclosing measure.
"""

from __future__ import annotations

from typing import Any

from repro.obs.session import TelemetrySession
from repro.obs.spans import UnitTelemetry

__all__ = ["dominant_phase", "render_report", "report_json_dict"]


def _format_table(headers, rows, *, title=None):
    # Imported lazily: ``repro.analysis`` pulls in the runtime, and the
    # runtime's modules import ``repro.obs.spans`` (which executes this
    # package's ``__init__``) — a module-level import here would close
    # that cycle.
    from repro.analysis.report import format_table

    return format_table(headers, rows, title=title)


def _fmt_s(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f}s"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.2f}ms"


def _fmt_bytes(count: float) -> str:
    # Local rather than ``repro.engine.cache.human_bytes``: importing the
    # engine here would re-open the cycle the lazy format_table avoids.
    scaled = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if scaled < 1024 or unit == "GiB":
            return (
                f"{scaled:.0f}{unit}" if unit == "B"
                else f"{scaled:.1f}{unit}"
            )
        scaled /= 1024
    raise AssertionError("unreachable")


def dominant_phase(unit: UnitTelemetry) -> str:
    """The phase this unit spent most of its instrumented time in."""
    phases = unit.phase_self_times()
    if not phases:
        return "-"
    return max(phases.items(), key=lambda kv: kv[1])[0]


def _phase_table(session: TelemetrySession) -> str:
    wall_total = session.unit_wall_total_s()
    with_memory = session.has_memory()

    def mem_cells(name: str) -> tuple[str, ...]:
        if not with_memory:
            return ()
        m = session.metrics.summary(f"phase_mem.{name}")
        if not m["count"]:
            return ("-", "-", "-")
        return (
            _fmt_bytes(m["p50"]), _fmt_bytes(m["p95"]), _fmt_bytes(m["max"])
        )

    rows = []
    for name in session.phase_names():
        s = session.metrics.summary(f"phase.{name}")
        share = s["total"] / wall_total if wall_total else 0.0
        rows.append((
            name,
            s["count"],
            _fmt_s(s["p50"]),
            _fmt_s(s["p95"]),
            _fmt_s(s["max"]),
            _fmt_s(s["total"]),
            f"{share * 100:.1f}%",
            *mem_cells(name),
        ))
    unaccounted = session.unaccounted_s()
    share = unaccounted / wall_total if wall_total else 0.0
    blanks = ("", "", "") if with_memory else ()
    rows.append((
        "(unaccounted)", "", "", "", "",
        _fmt_s(max(0.0, unaccounted)), f"{share * 100:.1f}%", *blanks,
    ))
    unit_mem = (
        session.metrics.summary("unit.mem_peak_b") if with_memory else None
    )
    rows.append((
        "total (unit wall)", len(session.units), "", "", "",
        _fmt_s(wall_total), "100.0%" if wall_total else "-",
        *(
            (
                _fmt_bytes(unit_mem["p50"]),
                _fmt_bytes(unit_mem["p95"]),
                _fmt_bytes(unit_mem["max"]),
            )
            if unit_mem is not None and unit_mem["count"] else blanks
        ),
    ))
    headers = ["phase", "count", "p50", "p95", "max", "total", "share"]
    if with_memory:
        # Peak traced bytes live while the phase was open, per unit.
        headers += ["mem p50", "mem p95", "mem max"]
    return _format_table(headers, rows, title="per-phase self time")


def _top_units_table(session: TelemetrySession, top: int) -> str:
    rows = [
        (
            f"{unit.algorithm} @ {unit.label}",
            unit.measure,
            _fmt_s(unit.wall_s),
            dominant_phase(unit),
            unit.worker,
        )
        for unit in session.top_units(top)
    ]
    return _format_table(
        ["unit", "measure", "wall", "dominant phase", "worker"],
        rows,
        title=f"top {len(rows)} slowest units",
    )


def _counter_lines(session: TelemetrySession) -> list[str]:
    m = session.metrics
    lines = []
    computed = m.counter("units.computed")
    wall = session.unit_wall_total_s()
    if computed:
        rate = f", {computed / wall:.2f} units/s" if wall else ""
        lines.append(
            f"units: {computed:g} computed in {_fmt_s(wall)} busy time"
            f"{rate} (session elapsed {_fmt_s(session.elapsed_s)})"
        )
    rounds = m.counter("runtime.rounds")
    if m.counter("runtime.runs"):
        delivered = m.counter("runtime.messages.delivered")
        dropped = m.counter("runtime.messages.dropped")
        per_s = f", {rounds / wall:.1f} rounds/s" if wall else ""
        vector_runs = m.counter("runtime.vector.runs")
        vector_note = (
            f" ({vector_runs:g} on the vector engine)" if vector_runs else ""
        )
        lines.append(
            f"runtime: {m.counter('runtime.runs'):g} runs{vector_note}, "
            f"{rounds:g} rounds{per_s}; messages: {delivered:g} "
            f"delivered, {dropped:g} dropped"
        )
    built = m.counter("graph_build.graphs")
    if built:
        # Units of one cell share its graph: the first builds it, the
        # rest count ``graph_build.shared``.
        units = built + m.counter("graph_build.shared")
        edges = m.counter("graph_build.edges")
        build_s = sum(
            m.summary(name)["total"]
            for name in m.histogram_names(prefix="phase.graph_build")
        )
        per_s = f", {edges / build_s:,.0f} edges/s" if build_s else ""
        lines.append(
            f"graph build: {built:g} graph(s) for {units:g} unit(s), "
            f"{int(edges):,} edge(s) in {_fmt_s(build_s)}{per_s}"
        )
    brackets = m.counter("optimum.bracket")
    if brackets:
        # Units of one cell share its greedy witness: the first computes
        # it and counts ``optimum.witness``.
        verify = m.summary("phase.optimum_verify")
        lines.append(
            f"optimum: {m.counter('optimum.witness'):g} bracket(s) for "
            f"{brackets:g} unit(s); certificate verification "
            f"{_fmt_s(verify['total'])} total "
            f"(p50 {_fmt_s(verify['p50'])} per unit)"
        )
    sandwiches = m.counter("optimum.sandwich")
    if sandwiches:
        # Only where ν can raise the lower side; units of one cell share
        # the sandwich, the first computes it and the rest count
        # ``optimum.sandwich_shared``.
        computed = sandwiches - m.counter("optimum.sandwich_shared")
        mean_gap = m.counter("optimum.gap_total") / sandwiches
        lines.append(
            f"optimum: {computed:g} ν-sandwich(es) for {sandwiches:g} "
            f"unit(s), mean gap (dual−primal) {mean_gap:.1f}"
        )
    if session.has_memory():
        unit_mem = m.summary("unit.mem_peak_b")
        rss = m.summary("unit.rss_peak_b")
        rss_note = (
            f"; process peak RSS {_fmt_bytes(rss['max'])}"
            if rss["count"] else ""
        )
        lines.append(
            f"memory: traced peak per unit p50 {_fmt_bytes(unit_mem['p50'])}"
            f" / p95 {_fmt_bytes(unit_mem['p95'])}"
            f" / max {_fmt_bytes(unit_mem['max'])}{rss_note}"
        )
        engines = m.histogram_names(prefix="engine_mem.")
        if engines:
            per_engine = ", ".join(
                f"{name[len('engine_mem.'):]} "
                f"p50 {_fmt_bytes(m.summary(name)['p50'])} "
                f"max {_fmt_bytes(m.summary(name)['max'])} "
                f"({m.summary(name)['count']:g} unit(s))"
                for name in engines
            )
            lines.append(f"memory by engine: {per_engine}")
    hits, misses = m.counter("cache.hit"), m.counter("cache.miss")
    if hits or misses:
        reads = m.summary("cache.read_s")
        writes = m.summary("cache.write_s")
        evicted = m.counter("cache.evict")
        lines.append(
            f"cache: {hits:g} hit(s), {misses:g} miss(es), "
            f"{evicted:g} evicted; read p50 {_fmt_s(reads['p50'])} "
            f"p95 {_fmt_s(reads['p95'])}, write p50 {_fmt_s(writes['p50'])}"
        )
    if session.worker_busy:
        busiest = sorted(
            session.worker_busy.items(), key=lambda kv: -kv[1]
        )
        shown = ", ".join(
            f"{worker} {_fmt_s(busy)}" for worker, busy in busiest[:4]
        )
        more = f" (+{len(busiest) - 4} more)" if len(busiest) > 4 else ""
        lines.append(f"workers: {len(busiest)} busy — {shown}{more}")
    lines.extend(
        f"{name}: {value}" for name, value in sorted(session.notes.items())
    )
    return lines


def report_json_dict(
    session: TelemetrySession,
    *,
    top: int = 5,
    title: str = "telemetry report",
) -> dict[str, Any]:
    """The profile report as one machine-readable JSON document.

    The same content as :func:`render_report` — phase table, slowest
    units, counters — with raw numbers instead of formatted strings
    (``repro-eds profile --format json``).
    """
    wall_total = session.unit_wall_total_s()
    with_memory = session.has_memory()
    phases = []
    for name in session.phase_names():
        s = session.metrics.summary(f"phase.{name}")
        row: dict[str, Any] = {
            "name": name,
            "count": s["count"],
            "p50_s": round(s["p50"], 9),
            "p95_s": round(s["p95"], 9),
            "max_s": round(s["max"], 9),
            "total_s": round(s["total"], 9),
            "share": round(s["total"] / wall_total, 6) if wall_total else 0.0,
        }
        if with_memory:
            m = session.metrics.summary(f"phase_mem.{name}")
            if m["count"]:
                row["mem_peak_p50_b"] = round(m["p50"])
                row["mem_peak_p95_b"] = round(m["p95"])
                row["mem_peak_max_b"] = round(m["max"])
        phases.append(row)
    units = []
    for unit in session.top_units(top):
        entry: dict[str, Any] = {
            "key": unit.key,
            "algorithm": unit.algorithm,
            "label": unit.label,
            "measure": unit.measure,
            "wall_s": round(unit.wall_s, 9),
            "dominant_phase": dominant_phase(unit),
            "worker": unit.worker,
        }
        if unit.mem_peak_b is not None:
            entry["mem_peak_b"] = unit.mem_peak_b
        units.append(entry)
    return {
        "title": title,
        "elapsed_s": round(session.elapsed_s, 9),
        "units_computed": len(session.units),
        "unit_wall_total_s": round(wall_total, 9),
        "unaccounted_s": round(session.unaccounted_s(), 9),
        "memory_captured": with_memory,
        "phases": phases,
        "top_units": units,
        "metrics": session.metrics.to_json_dict(),
        "notes": dict(session.notes),
        "worker_busy_s": {
            worker: round(busy, 9)
            for worker, busy in sorted(session.worker_busy.items())
        },
    }


def render_report(
    session: TelemetrySession,
    *,
    top: int = 5,
    title: str = "telemetry report",
) -> str:
    """Render the full profile: phase table, slowest units, counters."""
    parts = [title, "=" * len(title), ""]
    if not session.units:
        parts.append("no units were computed (all served from cache?)")
        parts.extend(_counter_lines(session))
        return "\n".join(parts)
    parts.append(_phase_table(session))
    parts.append("")
    if top > 0:
        parts.append(_top_units_table(session, top))
        parts.append("")
    parts.extend(_counter_lines(session))
    return "\n".join(parts)
