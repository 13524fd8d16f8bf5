"""Scenario: link monitoring in an anonymous sensor grid.

A wireless sensor deployment is laid out as an n×m grid; every radio link
should be observable by a *monitored* link adjacent to it (sharing a
sensor), so that a monitor sees all traffic passing "next to" it.  The
smallest such set of monitored links is exactly a minimum edge dominating
set.

The twist motivating the paper: cheap sensors have no unique hardware
identifiers — each one only knows how many neighbours it has and can tell
its own radio interfaces apart (ports 1..deg).  That is precisely the
port-numbering model, and A(Δ) gives a provably near-optimal monitoring
set in O(Δ²) communication rounds regardless of how large the field is.

Run with::

    python examples/sensor_network.py
"""

from __future__ import annotations

from repro import api


def monitor_field(rows: int, cols: int) -> None:
    field = api.graph("grid", seed=42, rows=rows, cols=cols)

    # Anonymous deployment: A(Δ) needs only the degree promise (Δ = 4
    # for interior sensors).  The engine runs it, checks that the
    # monitored links form an edge dominating set, and measures them
    # against the optimum (exact on small fields, a lower bound beyond).
    anonymous = api.run_one("bounded_degree", field, exact_edge_limit=40)
    delta = anonymous.max_degree
    print(f"\nsensor field {rows}x{cols}: {anonymous.num_nodes} sensors, "
          f"{anonymous.num_edges} radio links, max degree {delta}")
    bound_kind = "optimum" if anonymous.optimum_exact else "lower bound"
    print(f"  anonymous A({delta}):   {anonymous.solution_size:3d} monitored "
          f"links, {anonymous.rounds} rounds; {bound_kind} "
          f"{anonymous.optimum} -> ratio <= {float(anonymous.ratio):.3f}")

    # What would unique serial numbers buy?  The ID-based greedy maximal
    # matching is a 2-approximation but needs O(n) rounds in the worst
    # case and stronger hardware assumptions.
    identified = api.run_one("ids_greedy", field, optimum="none")
    print(f"  with unique IDs:  {identified.solution_size:3d} monitored "
          f"links, {identified.rounds} rounds (greedy maximal matching)")


def main() -> None:
    print("link monitoring = edge dominating set, on anonymous hardware")
    for rows, cols in ((3, 4), (5, 6), (8, 10)):
        monitor_field(rows, cols)
    print(
        "\nNote how the anonymous algorithm's round count is constant "
        "across field sizes\n(it depends only on Δ), while the ID-based "
        "baseline's rounds grow with the field."
    )


if __name__ == "__main__":
    main()
