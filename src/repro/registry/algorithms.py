"""The algorithm registry: names → runnable, model-aware algorithms.

A registered algorithm declares

* its **model** — ``anonymous`` (port numbering only), ``identified``
  (unique IDs), ``randomized`` (anonymous + private coins), or
  ``central`` (sequential baseline);
* its accepted **params** (keyword arguments such as the degree promise
  ``delta`` of A(Δ));
* implicitly, whether it **needs a per-run RNG** (every ``randomized``
  algorithm does; the engine derives the seed from the work unit's
  content hash, which is what makes randomised runs cacheable and
  byte-reproducible).

:func:`resolve` turns a name + params (+ RNG seed) into a
:class:`BoundAlgorithm` — a ready-to-run closure bundle that the
executor, the API façade, and the legacy shims all share.

Built-in algorithms register themselves where they are defined (the
``repro.algorithms`` modules); third-party code uses the same decorator::

    from repro.registry import register_algorithm, BoundAlgorithm

    @register_algorithm("my_algo", model="anonymous")
    def _bind_my_algo() -> BoundAlgorithm:
        ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Mapping

from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import PortEdge
from repro.registry.base import (
    Registry,
    RegistryError,
    UnknownParameterError,
    load_builtins,
)
from repro.runtime.algorithm import AnonymousAlgorithm
from repro.runtime.randomized import RandomizedAlgorithm, run_randomized
from repro.runtime.scheduler import RunResult, run_anonymous, run_identified

__all__ = [
    "ALGORITHMS",
    "AlgorithmEntry",
    "BoundAlgorithm",
    "MODELS",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "register_anonymous",
    "register_central",
    "register_identified",
    "register_randomized",
    "resolve",
]

#: Computation models an algorithm can declare.
MODELS = ("anonymous", "identified", "randomized", "central")

Runner = Callable[[PortNumberedGraph], tuple[AbstractSet[PortEdge], int]]
TracedRunner = Callable[[PortNumberedGraph], RunResult]


@dataclass(frozen=True)
class BoundAlgorithm:
    """An algorithm with parameters (and RNG, if any) bound — runnable.

    ``run`` executes on a graph and returns ``(edge_set, rounds)``;
    simulated models return the run's mask-backed
    :class:`~repro.runtime.outputs.EdgeSelection` (see
    :meth:`RunResult.edge_set <repro.runtime.scheduler.RunResult.edge_set>`).
    ``factory`` exposes the raw node-program factory for anonymous-model
    algorithms (the adversary and trace drivers need it); ``traced``
    re-runs with message tracing enabled and returns the full
    :class:`~repro.runtime.scheduler.RunResult` (``None`` for central
    algorithms, which send no messages).
    """

    name: str
    model: str
    run: Runner
    factory: Callable[[PortNumberedGraph], AnonymousAlgorithm] | None = None
    traced: TracedRunner | None = None


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered algorithm: declared metadata + binder.

    ``origin`` records the module that registered the entry; the
    executor ships it to ``spawn``-start multiprocessing workers so that
    import re-registers plugins there (see
    :func:`repro.engine.executor.run_units`).
    """

    name: str
    model: str
    bind: Callable[..., BoundAlgorithm]
    params: tuple[str, ...] = ()
    description: str = ""
    origin: str = ""

    @property
    def needs_rng(self) -> bool:
        """Randomised algorithms get a fresh engine-derived RNG per run."""
        return self.model == "randomized"

    def resolve(
        self,
        params: Mapping[str, Any] | None = None,
        *,
        rng_seed: int | None = None,
    ) -> BoundAlgorithm:
        """Bind *params* (and the RNG seed, if needed) into a runnable."""
        kwargs = dict(params or {})
        unknown = sorted(set(kwargs) - set(self.params))
        if unknown:
            raise UnknownParameterError(
                f"unknown parameters for algorithm {self.name!r}: {unknown}"
                + (f"; accepted: {sorted(self.params)}" if self.params
                   else " (it takes none)")
            )
        if self.needs_rng:
            kwargs["rng_seed"] = 0 if rng_seed is None else rng_seed
        return self.bind(**kwargs)


ALGORITHMS: Registry[AlgorithmEntry] = Registry(
    "algorithm", loader=load_builtins
)


def register_algorithm(
    name: str,
    *,
    model: str,
    params: tuple[str, ...] = (),
    description: str = "",
    origin: str | None = None,
    replace: bool = False,
) -> Callable[[Callable[..., BoundAlgorithm]], Callable[..., BoundAlgorithm]]:
    """Class/function decorator registering a :class:`BoundAlgorithm` binder.

    The decorated callable receives the declared ``params`` as keyword
    arguments (plus ``rng_seed`` for ``randomized`` algorithms) and
    returns a :class:`BoundAlgorithm`.  *origin* defaults to the
    binder's defining module; register plugins at module import time so
    multiprocessing workers can re-import them.
    """
    if model not in MODELS:
        raise RegistryError(
            f"unknown model {model!r} for algorithm {name!r}; "
            f"available: {MODELS}"
        )

    def decorate(bind: Callable[..., BoundAlgorithm]):
        ALGORITHMS.register(
            name,
            AlgorithmEntry(
                name=name, model=model, bind=bind,
                params=tuple(params), description=description,
                origin=(origin if origin is not None
                        else getattr(bind, "__module__", "") or ""),
            ),
            replace=replace,
        )
        return bind

    return decorate


# ---------------------------------------------------------------------------
# Convenience registrars for the four models
# ---------------------------------------------------------------------------


def register_anonymous(
    name: str,
    factory_builder: Callable[..., AnonymousAlgorithm],
    *,
    params: tuple[str, ...] = (),
    description: str = "",
) -> None:
    """Register an anonymous-model algorithm from its factory builder.

    ``factory_builder(graph, **params)`` returns the anonymous factory
    (degree → node program) for that graph; the run/trace/adversary
    plumbing is derived automatically.
    """

    def bind(**bound: Any) -> BoundAlgorithm:
        def factory(graph: PortNumberedGraph) -> AnonymousAlgorithm:
            return factory_builder(graph, **bound)

        def run(graph: PortNumberedGraph):
            result = run_anonymous(graph, factory(graph))
            return result.edge_set(), result.rounds

        def traced(graph: PortNumberedGraph) -> RunResult:
            return run_anonymous(graph, factory(graph), record_trace=True)

        return BoundAlgorithm(name, "anonymous", run, factory, traced)

    register_algorithm(
        name, model="anonymous", params=params, description=description,
        origin=getattr(factory_builder, "__module__", "") or "",
    )(bind)


def register_identified(
    name: str,
    factory_builder: Callable[..., Any],
    *,
    params: tuple[str, ...] = (),
    description: str = "",
) -> None:
    """Register an identified-model (unique IDs) algorithm."""

    def bind(**bound: Any) -> BoundAlgorithm:
        def run(graph: PortNumberedGraph):
            result = run_identified(graph, factory_builder(graph, **bound))
            return result.edge_set(), result.rounds

        def traced(graph: PortNumberedGraph) -> RunResult:
            return run_identified(
                graph, factory_builder(graph, **bound), record_trace=True
            )

        return BoundAlgorithm(name, "identified", run, traced=traced)

    register_algorithm(
        name, model="identified", params=params, description=description,
        origin=getattr(factory_builder, "__module__", "") or "",
    )(bind)


def register_randomized(
    name: str,
    program_builder: Callable[..., RandomizedAlgorithm],
    *,
    params: tuple[str, ...] = (),
    description: str = "",
) -> None:
    """Register an anonymous + private-coins algorithm.

    ``program_builder(graph, **params)`` returns the randomised factory
    ``(degree, rng) → node program``.  The bound runnable is seeded with
    the engine-derived ``rng_seed``, so identical work units replay
    identical coin flips — randomised results are deterministic data.
    """

    def bind(*, rng_seed: int, **bound: Any) -> BoundAlgorithm:
        def run(graph: PortNumberedGraph):
            result = run_randomized(
                graph, program_builder(graph, **bound), seed=rng_seed
            )
            return result.edge_set(), result.rounds

        def traced(graph: PortNumberedGraph) -> RunResult:
            return run_randomized(
                graph, program_builder(graph, **bound), seed=rng_seed,
                record_trace=True,
            )

        return BoundAlgorithm(name, "randomized", run, traced=traced)

    register_algorithm(
        name, model="randomized", params=params, description=description,
        origin=getattr(program_builder, "__module__", "") or "",
    )(bind)


def register_central(
    name: str,
    solver: Callable[..., frozenset[PortEdge]],
    *,
    params: tuple[str, ...] = (),
    description: str = "",
) -> None:
    """Register a centralised (sequential baseline) solver.

    ``solver(graph, **params)`` returns the selected edge set; rounds and
    messages are zero by definition of the model.
    """

    def bind(**bound: Any) -> BoundAlgorithm:
        def run(graph: PortNumberedGraph):
            return solver(graph, **bound), 0

        return BoundAlgorithm(name, "central", run)

    register_algorithm(
        name, model="central", params=params, description=description,
        origin=getattr(solver, "__module__", "") or "",
    )(bind)


# ---------------------------------------------------------------------------
# Lookups
# ---------------------------------------------------------------------------


def get_algorithm(name: str) -> AlgorithmEntry:
    """The registered entry (metadata + binder) for *name*."""
    return ALGORITHMS.get(name)


def algorithm_names() -> tuple[str, ...]:
    """All registered algorithm names, sorted."""
    return ALGORITHMS.names()


def resolve(
    name: str,
    params: Mapping[str, Any] | None = None,
    *,
    rng_seed: int | None = None,
) -> BoundAlgorithm:
    """Resolve *name* + *params* to a runnable :class:`BoundAlgorithm`.

    This is the single point where algorithm names turn back into code —
    the executor, the API façade, and the CLI all call it.
    """
    return get_algorithm(name).resolve(params, rng_seed=rng_seed)
