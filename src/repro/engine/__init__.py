"""Parallel experiment engine with content-addressed result caching.

The engine turns the reproduction's experiments into data-driven grids:

* :mod:`repro.engine.spec` — declarative, hashable work units
  (:class:`JobSpec` / :class:`GraphSpec`) and deterministic seeding;
* :mod:`repro.engine.grid` — :class:`SweepGrid` expansion of
  algorithm × family × size × seed grids;
* :mod:`repro.engine.cache` — the content-addressed on-disk cache under
  ``.repro-cache/`` keyed by the SHA-256 of each unit's canonical JSON,
  with size/age eviction (:meth:`ResultCache.gc`);
* :mod:`repro.engine.backends` — execution backends (``inline`` and
  ``process``; the default ``auto`` is inline for one worker and the
  process pool for more);
* :mod:`repro.engine.executor` — grid execution over a backend with
  write-through caching and progress/ETA reporting; a backend's unit of
  work is the *cell* (the units on one graph), whose graph is built once;
* :mod:`repro.engine.measures` — the built-in measures (``quality``,
  ``messages``, ``adversary``, ``phase_split``) and the shared
  build → run → measure → record pipeline behind the
  :mod:`repro.registry.measures` plugin protocol;
* :mod:`repro.engine.figures` — the paper's figure reproductions
  (E5–E11) as engine units: the ``figure`` graph family plus one
  ``figure:N`` measure per figure;
* :mod:`repro.engine.records` — typed result records and the JSONL
  results store the analysis layer formats.

Every experiment driver (Table 1, figures, sweeps, ablations) routes
its execution through :func:`run_units`, so any repeated unit anywhere
in the harness is computed exactly once per cache directory.
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    resolve_backend,
)
from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    GcReport,
    ResultCache,
    cache_key,
    parse_age,
    parse_size,
)
from repro.engine.executor import (
    ExecutionReport,
    ProgressPrinter,
    execute_unit,
    run_units,
)
from repro.engine.figures import FIGURE_IDS, figure_unit, figure_units
from repro.engine.grid import SweepGrid
from repro.engine.measures import default_execute, unit_rng_seed
from repro.engine.records import ResultRecord, ResultStore
from repro.engine.scenarios import SCENARIOS, get_scenario, scenario_names
from repro.engine.spec import (
    GraphSpec,
    JobSpec,
    canonical_json,
    derive_seed,
)

__all__ = [
    "BACKEND_NAMES",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExecutionBackend",
    "ExecutionReport",
    "FIGURE_IDS",
    "GcReport",
    "GraphSpec",
    "InlineBackend",
    "JobSpec",
    "ProcessBackend",
    "ProgressPrinter",
    "ResultCache",
    "ResultRecord",
    "ResultStore",
    "SCENARIOS",
    "SweepGrid",
    "cache_key",
    "canonical_json",
    "default_execute",
    "derive_seed",
    "execute_unit",
    "figure_unit",
    "figure_units",
    "get_scenario",
    "parse_age",
    "parse_size",
    "resolve_backend",
    "run_units",
    "scenario_names",
    "unit_rng_seed",
]
