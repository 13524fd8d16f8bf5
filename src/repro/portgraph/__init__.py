"""Port-numbered graphs: the model of computation substrate (paper §2).

Public surface:

* :class:`~repro.portgraph.graph.PortNumberedGraph` — the model type.
* :class:`~repro.portgraph.builder.PortGraphBuilder` — explicit wiring.
* :func:`~repro.portgraph.convert.from_networkx` /
  :func:`~repro.portgraph.convert.to_networkx` — conversions.
* :mod:`~repro.portgraph.numbering` — port-numbering strategies.
* :mod:`~repro.portgraph.labels` — Section 5 machinery (label pairs,
  distinguishable neighbours, the matchings ``M(i, j)``).
* :mod:`~repro.portgraph.covering` — covering maps, quotients and lifts.
"""

from repro.portgraph.builder import PortGraphBuilder
from repro.portgraph.convert import (
    from_neighbour_orders,
    from_networkx,
    to_networkx,
    to_simple_networkx,
)
from repro.portgraph.covering import (
    is_covering_map,
    quotient_by_partition,
    random_lift,
    verify_covering_map,
)
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.labels import (
    all_matchings,
    distinguishable_edge,
    distinguishable_neighbour,
    label_pair,
    label_pairs_at,
    matching_m,
    uniquely_labelled_edges,
)
from repro.portgraph.numbering import (
    factor_pairing_numbering,
    random_numbering,
    sequential_numbering,
)
from repro.portgraph.ports import Node, Port, PortEdge
from repro.portgraph.refinement import (
    best_anonymous_eds_size,
    edge_orbits,
    minimal_quotient,
    stable_partition,
)
from repro.portgraph.render import render_edge_set, render_graph, render_outputs
from repro.portgraph.views import (
    ViewInterner,
    view,
    view_partition,
    views_at_depth,
)

__all__ = [
    "PortNumberedGraph",
    "PortGraphBuilder",
    "PortEdge",
    "Node",
    "Port",
    "from_networkx",
    "from_neighbour_orders",
    "to_networkx",
    "to_simple_networkx",
    "sequential_numbering",
    "random_numbering",
    "factor_pairing_numbering",
    "label_pair",
    "label_pairs_at",
    "uniquely_labelled_edges",
    "distinguishable_edge",
    "distinguishable_neighbour",
    "matching_m",
    "all_matchings",
    "verify_covering_map",
    "is_covering_map",
    "quotient_by_partition",
    "random_lift",
    "stable_partition",
    "minimal_quotient",
    "edge_orbits",
    "best_anonymous_eds_size",
    "view",
    "views_at_depth",
    "view_partition",
    "ViewInterner",
    "render_graph",
    "render_edge_set",
    "render_outputs",
]
