"""Route computation over the physical network.

The :class:`Router` indexes hosts by IP and turns shortest paths into
per-switch forwarding rules.  Path installation order is significant
(paper §5.3: "the forwarding rule on the first hop switch is added at
last so that packets are forwarded on the new path only after all
switches on the path are ready") — :meth:`rules_for_path` returns rules
in exactly that order (last hop first), and callers that want the naive
order can reverse it (the ablation test does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import PRIORITY_PHYSICAL_FLOW
from repro.net.flow import FlowKey
from repro.net.host import Host
from repro.net.topology import Network
from repro.switch.actions import Action, Output
from repro.switch.match import Match
from repro.switch.switch import OpenFlowSwitch


@dataclass
class HopRule:
    """One per-flow forwarding rule to be installed at one switch (with
    its priority — middlebox return-leg rules on the overlay need a
    label-qualified higher one, see :mod:`repro.core.policy`)."""

    dpid: str
    match: Match
    actions: List[Action]
    priority: int = PRIORITY_PHYSICAL_FLOW


class Router:
    """Host lookup + physical path and rule computation."""

    def __init__(self, network: Network):
        self.network = network
        self._hosts_by_ip: Dict[str, Host] = {}
        self.refresh_hosts()

    def refresh_hosts(self) -> None:
        """Re-index hosts (call after topology construction)."""
        self._hosts_by_ip = {
            node.ip: node for node in self.network.nodes.values() if isinstance(node, Host)
        }

    def host_for(self, ip: str) -> Optional[Host]:
        return self._hosts_by_ip.get(ip)

    # ------------------------------------------------------------------
    # Paths and rules
    # ------------------------------------------------------------------
    def path_to(self, from_node: str, dst_ip: str) -> Optional[List[str]]:
        """Minimum-delay node path from ``from_node`` to the host owning
        ``dst_ip`` (inclusive), or None if the host is unknown or
        unreachable."""
        host = self.host_for(dst_ip)
        if host is None:
            return None
        import networkx as nx

        try:
            return self.network.shortest_path(from_node, host.name)
        except nx.NetworkXNoPath:
            return None

    def rules_for_path(
        self,
        path: Sequence[str],
        key: FlowKey,
    ) -> List[HopRule]:
        """Exact-match forwarding rules for ``key`` along ``path``.

        Returned **last hop first** — installing in list order implements
        the paper's make-before-break ordering.
        """
        rules: List[HopRule] = []
        for index in range(len(path) - 1):
            node_name = path[index]
            if not isinstance(self.network[node_name], OpenFlowSwitch):
                continue
            out_port = self.network.port_between(node_name, path[index + 1])
            match = Match.exact(
                key.src_ip,
                key.dst_ip,
                key.proto,
                key.src_port,
                key.dst_port,
            )
            rules.append(HopRule(node_name, match, [Output(out_port)]))
        rules.reverse()
        return rules
