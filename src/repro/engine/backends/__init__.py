"""Execution backends for the experiment engine.

The executor's scheduling strategy is a plugin: :func:`run_units`
resolves a backend name (or ready-made :class:`ExecutionBackend`) and
hands it the uncached work units.  Two backends ship built in:

* :class:`InlineBackend` — zero-overhead serial execution in the
  calling process (no pickling, no pool);
* :class:`ProcessBackend` — a ``concurrent.futures`` process pool, one
  cell per task, with registry-based name resolution in each worker.

``"auto"``, the default, is a rule on the worker count: inline for one
worker, the process pool for more.  Every backend honours the engine's
determinism contract — records depend only on their specs — so the
backend choice changes wall-clock time, never results.
"""

from repro.engine.backends.base import (
    BACKEND_NAMES,
    ExecutionBackend,
    resolve_backend,
)
from repro.engine.backends.inline import InlineBackend
from repro.engine.backends.process import ProcessBackend

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "resolve_backend",
]
