"""Topology registry and path computation.

:class:`Network` owns every node, wires links (recording them in a
networkx graph with delay weights), and answers shortest-path queries for
the controller's route computation.  Middleboxes are excluded from path
computation by default — traffic only traverses them when a policy
explicitly routes through them (paper §5.4).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

import networkx as nx

from repro.net.links import connect
from repro.net.node import Node
from repro.sim.engine import Simulator


class Network:
    """The physical topology: nodes, links, and routing queries."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.graph = nx.Graph()
        self._routing_excluded: set = set()
        self._path_cache: Dict[Tuple[str, str, FrozenSet[str]], List[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self.graph.add_node(node.name)
        self._path_cache.clear()
        return node

    def __getitem__(self, name: str) -> Node:
        return self.nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def link(
        self,
        a: str,
        b: str,
        rate_bps: float = 1e9,
        delay: float = 50e-6,
    ) -> Tuple[int, int]:
        """Wire a full-duplex link; returns the new (port on a, port on b)."""
        node_a, node_b = self.nodes[a], self.nodes[b]
        port_a, port_b = connect(self.sim, node_a, node_b, rate_bps, delay)
        self.graph.add_edge(
            a,
            b,
            delay=delay,
            rate_bps=rate_bps,
            ports={a: port_a.port_no, b: port_b.port_no},
        )
        self._path_cache.clear()
        return port_a.port_no, port_b.port_no

    def exclude_from_routing(self, name: str) -> None:
        """Never route *through* this node (middleboxes, paper §5.4);
        it may still be a path endpoint."""
        self._routing_excluded.add(name)
        self._path_cache.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def port_between(self, a: str, b: str) -> int:
        """Port number on ``a`` of the direct link to ``b``."""
        data = self.graph.get_edge_data(a, b)
        if data is None:
            raise KeyError(f"no link between {a!r} and {b!r}")
        return data["ports"][a]

    def neighbors(self, name: str) -> List[str]:
        return list(self.graph.neighbors(name))

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Minimum-delay node path from src to dst.

        Routing-excluded nodes (middleboxes) are not used as transit
        hops; endpoints are always permitted.  Raises
        ``networkx.NetworkXNoPath`` if disconnected.
        """
        banned = frozenset(self._routing_excluded) - {src, dst}
        cache_key = (src, dst, banned)
        cached = self._path_cache.get(cache_key)
        if cached is not None:
            return list(cached)
        if banned:
            view = nx.subgraph_view(self.graph, filter_node=lambda n: n not in banned)
        else:
            view = self.graph
        path = nx.shortest_path(view, src, dst, weight="delay")
        self._path_cache[cache_key] = list(path)
        return path
