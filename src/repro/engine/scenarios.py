"""Named sweep scenarios for the ``repro-eds sweep`` command.

``default`` is small enough for a laptop smoke run; ``large-regular`` is
the grid the sequential harness could never finish — random regular
graphs with d ∈ {2..10} and n up to 2048, ten seeds per cell — and is
only practical through the engine's sharded executor and cache;
``xlarge-regular`` pushes n to 16384 on top of the compiled simulation
core (E19) and, since the certified-bounds subsystem (E21), reports
certified ratio intervals instead of running blind;
``huge-regular`` rides the direct-to-CSR pairing-model generator to
n = 10^6 (E24, vector engine) and, since the array-native bounds
(E28, E35), reports certified ratio intervals there too;
``comparison`` is the regular-family half of the ``repro-eds compare``
head-to-head (paper algorithms vs the :mod:`repro.baselines` family).
"""

from __future__ import annotations

from repro.engine.grid import SweepGrid

__all__ = ["SCENARIOS", "get_scenario", "scenario_names"]

SCENARIOS: dict[str, SweepGrid] = {
    "default": SweepGrid(
        name="default",
        algorithms=("port_one", "regular_odd", "bounded_degree"),
        family="regular",
        degrees=(2, 3, 4, 5),
        sizes=(16, 32),
        seeds=3,
        optimum="auto",
    ),
    "large-regular": SweepGrid(
        name="large-regular",
        algorithms=("port_one", "regular_odd", "bounded_degree"),
        family="regular",
        degrees=(2, 3, 4, 5, 6, 7, 8, 9, 10),
        sizes=(64, 128, 256, 512, 1024, 2048),
        seeds=10,
        # The exact solver is hopeless at this scale; report ratios
        # against the poly-time lower bound instead.
        optimum="lower_bound",
    ),
    # The scale the compiled simulation core unlocks (E19): n up to
    # 16384, where the dict-based scheduler alone spent minutes per
    # unit.  Ratios ran as ``optimum="none"`` until the certified
    # bounds subsystem (E21): the blossom lower bound was ~3 minutes
    # per unit at this size, while the certified bracket (the greedy
    # witness over ⌈m/(2Δ−1)⌉ on these regular graphs, E35) takes well
    # under a second — so the scenario now reports honest ratio
    # *intervals* (``ratio_lo``/``ratio_hi``) end to end.
    "xlarge-regular": SweepGrid(
        name="xlarge-regular",
        algorithms=("port_one", "regular_odd", "bounded_degree"),
        family="regular",
        degrees=(2, 3, 4, 8),
        sizes=(4096, 8192, 16384),
        seeds=2,
        optimum="dual_bound",
    ),
    # The million-node scenario the direct-to-CSR path unlocks: the
    # pairing-model generator emits compiled arrays in O(nd), so graph
    # build stays seconds even at n = 10^6 where the networkx regular
    # family spent minutes in dict walks.  The certified bracket runs
    # over the same arrays once per cell (E28, E35), so the scenario
    # reports certified ratio intervals at every size.
    "huge-regular": SweepGrid(
        name="huge-regular",
        algorithms=("port_one", "regular_odd", "bounded_degree"),
        family="pairing_regular",
        degrees=(2, 3, 4, 8),
        sizes=(131072, 1048576),
        seeds=1,
        optimum="dual_bound",
    ),
    "bounded-mixed": SweepGrid(
        name="bounded-mixed",
        algorithms=("bounded_degree", "ids_greedy", "central_greedy"),
        family="bounded",
        degrees=(3, 4, 5),
        sizes=(16, 32, 64),
        seeds=5,
        optimum="auto",
    ),
    # Paper algorithms vs the repro.baselines comparison family, one
    # ratio/rounds/messages unit per cell; `repro-eds compare` runs this
    # grid over two graph families.  Sizes stay under the exact-optimum
    # limit so every ratio is against the true optimum.
    "comparison": SweepGrid(
        name="comparison",
        algorithms=(
            "port_one", "regular_odd", "bounded_degree",
            "greedy_mds_line", "lp_rounding", "forest_dds",
            "central_optimal",
        ),
        family="regular",
        degrees=(3, 4, 5),
        sizes=(12, 16),
        seeds=2,
        measure="comparison",
        optimum="auto",
    ),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(SCENARIOS))


def get_scenario(name: str) -> SweepGrid:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        ) from None
