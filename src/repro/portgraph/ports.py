"""Ports and port-level edges for port-numbered graphs (paper Section 2.1).

A *port* is a pair ``(v, i)`` where ``v`` is a node and ``i`` is an integer
in ``1..deg(v)``.  The connection structure of a port-numbered graph is an
involution ``p`` on the set of ports; every orbit of ``p`` of size two is an
edge between two distinct ports, and every fixed point is a directed loop.

This module defines the light-weight value types shared by the rest of the
package:

* :class:`PortEdge` — an edge identified by its (unordered) pair of ports.
* helper predicates for loops and canonical ordering.

Nodes may be arbitrary hashable objects; canonical ordering of ports inside
a :class:`PortEdge` is by ``(repr(node), port)`` which is deterministic for
the node types used throughout this package (strings, ints, tuples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

__all__ = ["Node", "Port", "PortEdge", "port_sort_key"]

Node = Hashable
Port = Tuple[Node, int]


def port_sort_key(port: Port) -> tuple[str, int]:
    """Deterministic total order on ports, independent of hash seeds."""
    node, index = port
    return (repr(node), index)


@dataclass(frozen=True)
class PortEdge:
    """An edge of a port-numbered graph, identified by its two ports.

    Attributes
    ----------
    u, i:
        One endpoint and the port number on that endpoint.
    v, j:
        The other endpoint and its port number.

    The constructor canonicalises the orientation so that equal edges
    compare equal: ``(u, i)`` is the lexicographically smaller port.  A
    *directed loop* (a fixed point ``p(v, i) = (v, i)`` of the involution)
    has ``u == v`` and ``i == j``; an *undirected loop* (``p(v, i) = (v, j)``
    with ``i != j``) has ``u == v`` and ``i != j``.
    """

    u: Node
    i: int
    v: Node
    j: int

    def __post_init__(self) -> None:
        if port_sort_key((self.u, self.i)) > port_sort_key((self.v, self.j)):
            u, i, v, j = self.v, self.j, self.u, self.i
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "v", v)
            object.__setattr__(self, "j", j)

    @classmethod
    def make(cls, u: Node, i: int, v: Node, j: int) -> "PortEdge":
        """Create a canonically ordered :class:`PortEdge`."""
        return cls(u, i, v, j)

    @property
    def ports(self) -> frozenset[Port]:
        """The set of ports of this edge (one port for a directed loop)."""
        return frozenset({(self.u, self.i), (self.v, self.j)})

    @property
    def endpoints(self) -> frozenset[Node]:
        """The set of endpoint nodes (a singleton for loops)."""
        return frozenset({self.u, self.v})

    @property
    def is_loop(self) -> bool:
        """True when both endpoints coincide (directed or undirected loop)."""
        return self.u == self.v

    @property
    def is_directed_loop(self) -> bool:
        """True for a fixed point of the involution, ``p(v, i) = (v, i)``."""
        return self.u == self.v and self.i == self.j

    def other_endpoint(self, node: Node) -> Node:
        """Return the endpoint different from *node* (or *node* for loops)."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise KeyError(f"{node!r} is not an endpoint of {self!r}")

    def port_at(self, node: Node) -> int:
        """Return the port number of this edge at *node*.

        For an undirected loop both ports belong to *node*; the smaller one
        is returned.  Raises :class:`KeyError` if *node* is not an endpoint.
        """
        if node == self.u:
            return self.i
        if node == self.v:
            return self.j
        raise KeyError(f"{node!r} is not an endpoint of {self!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PortEdge({self.u!r}:{self.i} -- {self.v!r}:{self.j})"
