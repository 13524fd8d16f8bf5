"""Shared fixtures for the test suite.

Hypothesis strategies live in the public :mod:`repro.testing` module and
are re-exported here for the test files' convenience.
"""

from __future__ import annotations

from unittest import mock

import networkx as nx
import pytest

from repro.portgraph import PortGraphBuilder, PortNumberedGraph, from_networkx
from repro.portgraph import convert
from repro.testing import (  # noqa: F401  (re-exported for test modules)
    bounded_degree_port_graphs,
    nx_graphs,
    odd_regular_port_graphs,
    port_graphs,
    regular_nx_graphs,
)

# ---------------------------------------------------------------------------
# Deterministic example graphs
# ---------------------------------------------------------------------------


@pytest.fixture
def path_graph_p2() -> PortNumberedGraph:
    """A single edge u -- v."""
    b = PortGraphBuilder()
    b.add_node("u", 1)
    b.add_node("v", 1)
    b.connect("u", 1, "v", 1)
    return b.build()


@pytest.fixture
def triangle() -> PortNumberedGraph:
    """K3 with sequential numbering."""
    return from_networkx(nx.complete_graph(3))


@pytest.fixture
def figure2_like_h() -> PortNumberedGraph:
    """A simple port-numbered graph with Figure 2's documented properties.

    The paper states, about the graph H of Figure 2: "a is the
    distinguishable neighbour of b, and d is the distinguishable neighbour
    of c.  However, the node a does not have any uniquely labelled edges."
    The figure's exact wiring is not recoverable from the text, so this
    graph realises exactly those three properties:

    * ``a`` (degree 2): both incident edges have label pair {1, 2};
    * ``b`` (degree 3): ports 1/3 both have pair {1, 3}, port 2 leads to
      ``a`` with pair {1, 2}, hence a is b's distinguishable neighbour;
    * ``c`` (degree 3): all pairs distinct, min port leads to ``d``.
    """
    b = PortGraphBuilder()
    b.add_nodes({"a": 2, "b": 3, "c": 3, "d": 2, "e": 2})
    b.connect("a", 1, "b", 2)
    b.connect("a", 2, "d", 1)
    b.connect("b", 1, "c", 3)
    b.connect("b", 3, "e", 1)
    b.connect("c", 1, "d", 2)
    b.connect("c", 2, "e", 2)
    return b.build()


@pytest.fixture
def multigraph_m() -> PortNumberedGraph:
    """The multigraph M of paper Figure 2 (two nodes s, t).

    d(s) = 3, d(t) = 4 with involution:
    (s,1)<->(t,2), (s,2)<->(t,1), (s,3) fixed point, (t,3)<->(t,4).
    """
    b = PortGraphBuilder()
    b.add_node("s", 3)
    b.add_node("t", 4)
    b.connect("s", 1, "t", 2)
    b.connect("s", 2, "t", 1)
    b.connect_fixed_point("s", 3)
    b.connect("t", 3, "t", 4)
    return b.build()


@pytest.fixture
def array_route():
    """Call a generator with the networkx route refused.

    Every networkx conversion ends in ``convert.from_neighbour_orders``;
    patched to raise, it fails any build that falls back to that route,
    so a graph returned here was lowered from arrays.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("the networkx route ran")

    def build(generator, *args, **kwargs):
        with mock.patch.object(convert, "from_neighbour_orders", refuse):
            return generator(*args, **kwargs)

    return build
