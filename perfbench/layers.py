"""Per-layer tracing of the real pipeline, from outside the program.

The traced run wraps each layer's public entry point, as the program
binds it, with a span.  A span records its calls, its self time (its
duration minus the wrapped spans nested inside it), the rise of the
process's peak RSS that it caused, and the garbage-collector pauses that
began while it was the innermost open span.  Nothing inside the program
changes: an entry point that no longer exists, or is no longer called,
reports zero calls and its time falls into ``engine.other_s``, which is
the traced wall time minus every span's self time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["ENTRIES", "LAYERS", "Tracer"]


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point and the metric its self time feeds."""

    metric: str
    layer: str
    module: str
    #: ``"function"`` or ``"Class.method"`` inside *module*.
    attr: str
    #: A count fed from each call's return value: (metric, extractor).
    count: tuple[str, Callable[[Any], float]] | None = None


ENTRIES: tuple[Entry, ...] = (
    Entry("generators.build_s", "generators", "repro.engine.spec",
          "GraphSpec.build",
          ("generators.edges", lambda g: getattr(g, "num_edges", 0))),
    Entry("portgraph.compile_s", "portgraph", "repro.portgraph.graph",
          "PortNumberedGraph.compiled"),
    Entry("runtime.simulate_s", "runtime", "repro.registry.algorithms",
          "run_anonymous", ("runtime.rounds", lambda r: r.rounds)),
    Entry("runtime.simulate_s", "runtime", "repro.registry.algorithms",
          "run_identified", ("runtime.rounds", lambda r: r.rounds)),
    Entry("runtime.outputs.decode_s", "runtime.outputs",
          "repro.runtime.scheduler", "RunResult.edge_set",
          ("runtime.outputs.edges", len)),
    Entry("eds.feasibility_s", "eds", "repro.engine.measures",
          "is_edge_dominating_set"),
    Entry("bounds.sandwich_s", "bounds", "repro.engine.measures",
          "nu_sandwich", ("bounds.nu_gap", lambda b: b.gap)),
    Entry("bounds.verify_s", "bounds", "repro.engine.measures",
          "verify_certificate"),
    Entry("engine.cache.put_s", "engine.cache", "repro.engine.cache",
          "ResultCache.put"),
    Entry("engine.cache.get_s", "engine.cache", "repro.engine.cache",
          "ResultCache.get",
          ("engine.cache.hits", lambda r: r is not None)),
)

#: The wrapped layers, in pipeline order; ``engine`` is the remainder.
LAYERS = tuple(dict.fromkeys(e.layer for e in ENTRIES))
COUNTS = tuple(dict.fromkeys(e.count[0] for e in ENTRIES if e.count))
TIMES = tuple(dict.fromkeys(e.metric for e in ENTRIES))


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Wraps the entry points while installed and accumulates per layer."""

    def __init__(self) -> None:
        # Open spans, innermost last: [layer, child_s, child_rise_kib].
        self._stack: list[list[Any]] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        self._gc_started = 0.0
        self._gc_layer = "engine"
        self.absent: list[str] = []
        self.self_s = dict.fromkeys(TIMES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.entry_calls = dict.fromkeys((e.attr for e in ENTRIES), 0)
        self.rise_kib = dict.fromkeys(LAYERS, 0)
        self.gc_s = dict.fromkeys(LAYERS + ("engine",), 0.0)
        self.gc_pause_s = 0.0
        self.gen2 = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for entry in ENTRIES:
            owner, name = self._locate(entry)
            original = None if owner is None else getattr(owner, name, None)
            if original is None:
                self.absent.append(f"{entry.module}.{entry.attr}")
                continue
            own = name in vars(owner)
            setattr(owner, name, self._wrap(entry, original))
            self._patched.append((owner, name, original, own))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, name, original, own in reversed(self._patched):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patched.clear()

    @staticmethod
    def _locate(entry: Entry) -> tuple[object | None, str]:
        *path, name = entry.attr.split(".")
        try:
            owner: object = importlib.import_module(entry.module)
        except ImportError:
            return None, name
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, name
        return owner, name

    def _wrap(self, entry: Entry,
              fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        layer, metric = entry.layer, entry.metric

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            rss = _peak_rss_kib()
            span = [layer, 0.0, 0]
            stack.append(span)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                rise = _peak_rss_kib() - rss
                stack.pop()
                self.self_s[metric] += elapsed - span[1]
                self.rise_kib[layer] += rise - span[2]
                self.calls[layer] += 1
                self.entry_calls[entry.attr] += 1
                if stack:
                    stack[-1][1] += elapsed
                    stack[-1][2] += rise
            if entry.count is not None:
                name, extract = entry.count
                self.counts[name] += extract(result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._gc_layer = self._stack[-1][0] if self._stack else "engine"
            self._gc_started = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_started
        self.gc_pause_s += pause
        self.gc_s[self._gc_layer] += pause
        if info.get("generation") == 2:
            self.gen2 += 1

    # -- results -------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for a traced window of *wall_s* seconds.

        Self times plus ``engine.other_s`` add up to *wall_s* by
        construction; a negative remainder would mean spans were
        double-counted, which the caller checks.
        """
        out: dict[str, float] = dict(self.self_s)
        for name in COUNTS:
            if name != "engine.cache.hits":
                out[name] = self.counts[name]
        gets = self.entry_calls["ResultCache.get"]
        out["engine.cache.hit_ratio"] = (
            self.counts["engine.cache.hits"] / gets if gets else 0.0
        )
        out["engine.other_s"] = wall_s - sum(self.self_s.values())
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.rss_rise_mib"] = self.rise_kib[layer] / 1024
        for layer, pause in self.gc_s.items():
            out[f"{layer}.gc_s"] = pause
        out["gc.pause_s"] = self.gc_pause_s
        out["gc.gen2"] = self.gen2
        return out
