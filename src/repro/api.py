"""repro.api — the one-stop façade over the registry and the engine.

Everything the CLI, the experiment drivers, the examples, and the
benchmarks need is three calls:

* :func:`graph` — describe a graph as data (a registered family name +
  parameters + seed);
* :func:`run_one` — execute a single (algorithm, graph, measure) unit
  and get its typed :class:`~repro.engine.records.ResultRecord`;
* :func:`run_sweep` — execute a whole grid (a named scenario, a
  :class:`~repro.engine.grid.SweepGrid`, or an explicit list of
  :class:`~repro.engine.spec.JobSpec` units) with sharded workers and
  the content-addressed result cache.

Anything registered through :mod:`repro.registry` — algorithms, graph
families, measures — is immediately addressable here by name::

    from repro import api

    record = api.run_one(
        "randomized_matching", api.graph("cycle", n=24), measure="messages"
    )
    report = api.run_sweep("default", workers=4, cache=True)
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Mapping, TypeAlias

from repro.engine.backends import ExecutionBackend
from repro.engine.cache import DEFAULT_CACHE_DIR, ResultCache, parse_size
from repro.engine.executor import ExecutionReport, run_units
from repro.engine.grid import SweepGrid
from repro.engine.records import ResultRecord
from repro.engine.scenarios import get_scenario
from repro.engine.spec import DEFAULT_EXACT_EDGE_LIMIT, GraphSpec, JobSpec

__all__ = [
    "CacheLike",
    "as_cache",
    "graph",
    "run_one",
    "run_sweep",
]

#: What callers may pass wherever a cache is accepted: nothing, a bool,
#: a directory, or a ready-made ResultCache.
CacheLike: TypeAlias = "ResultCache | str | os.PathLike[str] | bool | None"


def as_cache(
    cache: CacheLike = None, *, cache_dir: str | os.PathLike[str] | None = None
) -> ResultCache | None:
    """Normalise a cache argument to a :class:`ResultCache` (or None).

    ``True`` opens the default directory (or *cache_dir*), a string/path
    opens that directory, an existing :class:`ResultCache` passes
    through, and ``None``/``False`` disable caching.
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is True:
        return ResultCache(cache_dir if cache_dir is not None
                           else DEFAULT_CACHE_DIR)
    if cache is None or cache is False:
        return None
    return ResultCache(cache)


def graph(
    family: str, *, seed: int | None = None, **params: int
) -> GraphSpec:
    """Describe a graph as data: a registered family name + parameters."""
    return GraphSpec.make(family, seed=seed, **params)


def run_one(
    algorithm: str,
    graph: GraphSpec,
    *,
    algorithm_params: Mapping[str, Any] | None = None,
    measure: str = "quality",
    optimum: str = "auto",
    exact_edge_limit: int = DEFAULT_EXACT_EDGE_LIMIT,
    count_messages: bool = False,
    label: str = "",
    cache: CacheLike = None,
    cache_dir: str | os.PathLike[str] | None = None,
) -> ResultRecord:
    """Run one (algorithm, graph, measure) unit and return its record.

    The unit goes through the same executor as a sweep, so the result is
    cache-shared with any grid that contains the same cell.
    """
    unit = JobSpec(
        algorithm=algorithm,
        graph=graph,
        algorithm_params=tuple(sorted((algorithm_params or {}).items())),
        measure=measure,
        optimum=optimum,
        exact_edge_limit=exact_edge_limit,
        count_messages=count_messages,
        label=label,
    )
    report = run_units([unit], cache=as_cache(cache, cache_dir=cache_dir))
    return report.records[0]


def run_sweep(
    grid: "SweepGrid | str | Iterable[JobSpec]",
    *,
    workers: int = 1,
    cache: CacheLike = None,
    cache_dir: str | os.PathLike[str] | None = None,
    progress: Callable[[int, int], None] | None = None,
    jsonl: str | os.PathLike[str] | None = None,
    backend: "ExecutionBackend | str | None" = None,
    cache_max_size: int | str | None = None,
    **overrides: Any,
) -> ExecutionReport:
    """Run a grid of work units through the parallel experiment engine.

    *grid* may be a named scenario (``"default"``, ``"large-regular"``,
    …), a :class:`SweepGrid`, or any iterable of :class:`JobSpec` units.
    Keyword *overrides* (``degrees=…``, ``algorithms=…``, ``measure=…``)
    apply to scenario/grid inputs before expansion.  *jsonl* additionally
    writes the result records as canonical JSON lines.  *backend* picks
    the execution strategy (``"auto"``, ``"inline"``, ``"process"``, or
    an :class:`ExecutionBackend`); the default ``"auto"`` runs inline
    for one worker and across a pool of *workers* processes otherwise.
    *cache_max_size* (bytes, or a human size like ``"64MiB"``) is the
    opt-in gc automation: after the sweep the cache is evicted down to
    the cap, least recently written records first.
    """
    if isinstance(grid, str):
        grid = get_scenario(grid)
    if isinstance(grid, SweepGrid):
        if overrides:
            grid = grid.override(**overrides)
        units: list[JobSpec] = grid.expand()
    else:
        if overrides:
            raise TypeError(
                "grid overrides only apply to scenario names or SweepGrid "
                f"inputs, not explicit unit lists: {sorted(overrides)}"
            )
        units = list(grid)
    max_bytes = (
        parse_size(cache_max_size)
        if isinstance(cache_max_size, str) else cache_max_size
    )
    report = run_units(
        units,
        workers=max(1, workers),
        cache=as_cache(cache, cache_dir=cache_dir),
        progress=progress,
        backend=backend,
        cache_max_bytes=max_bytes,
    )
    if jsonl is not None:
        report.store.to_jsonl(jsonl)
    return report
