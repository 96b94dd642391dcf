"""Tunnels over the physical data plane.

A :class:`Tunnel` is a unidirectional MPLS path between two nodes (the
paper's §4.1 allows "any of the available tunneling protocols, such as
GRE, MPLS, MAC-in-MAC"; MPLS carries both §5.2 labels in one header
type).  Configuration is *offline* (paper §5.6): the fabric installs
static label-switching rules at every transit switch and a terminal rule
at the egress, none of which touches any OFA.

Entering a tunnel is an action list (:meth:`Tunnel.entry_actions`) that
the sender executes — for Scotch this is what a group-table bucket at the
physical switch does, or what a vSwitch's per-flow overlay rule does.

Terminal behaviour is parameterized by ``terminal_pops``: switch-to-mesh
tunnels pop two labels (outer tunnel id + inner ingress-port label, §5.2)
while mesh and delivery tunnels pop one; the popped labels ride on the
packet so the vSwitch's Packet-In can carry them to the controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.topology import Network
from repro.switch.actions import Action, GotoTable, Output, PopMpls, PushMpls
from repro.switch.match import Match
from repro.switch.switch import OpenFlowSwitch

#: Table-0 priority for static tunnel label-switching rules.  Higher than
#: any reactive rule so encapsulated transit traffic never hits per-flow
#: state at transit switches.
TUNNEL_RULE_PRIORITY = 3000

#: Pipeline table where decapsulated packets continue at the egress.
EGRESS_CONTINUE_TABLE = 1


@dataclass
class Tunnel:
    """One configured unidirectional MPLS tunnel."""

    tunnel_id: int
    src: str
    dst: str
    path: List[str]
    terminal_pops: int = 1

    def entry_actions(self, network: Network) -> List[Action]:
        """Actions the source executes to put a packet into the tunnel."""
        first_hop_port = network.port_between(self.src, self.path[1])
        return [PushMpls(self.tunnel_id), Output(first_hop_port)]

    def transit_match(self) -> Match:
        """The match transit switches use to label-switch this tunnel."""
        return Match(mpls_label=self.tunnel_id)

    def terminal_pop_actions(self) -> List[Action]:
        """Decapsulation at the egress: the tunnel label, then any inner
        labels (the §5.2 ingress-port label)."""
        return [PopMpls() for _ in range(self.terminal_pops)]


#: First MPLS label a fabric hands out.
LABEL_BASE = 100_000


class TunnelFabric:
    """Creates tunnels and installs their static rules."""

    def __init__(self, network: Network):
        self.network = network
        self._next_label = LABEL_BASE
        self.tunnels: Dict[int, Tunnel] = {}
        #: Full signature (src, dst, pops, extra actions) -> tunnel id,
        #: for idempotent creation.  Distinct signatures between the same
        #: endpoints are distinct tunnels (e.g. a pops=2 switch tunnel
        #: vs. a pops=1 mesh tunnel).
        self._by_signature: Dict[tuple, int] = {}

    def allocate_label(self) -> int:
        label = self._next_label
        self._next_label += 1
        return label

    def create(
        self,
        src: str,
        dst: str,
        terminal_pops: int = 1,
        terminal_extra_actions: Optional[List[Action]] = None,
    ) -> Tunnel:
        """Build a tunnel from ``src`` to ``dst`` along the shortest
        physical path and install its static rules.  Idempotent per
        full signature: an existing identical tunnel is returned
        unchanged."""
        signature = (src, dst, terminal_pops, tuple(terminal_extra_actions or ()))
        existing = self._by_signature.get(signature)
        if existing is not None:
            return self.tunnels[existing]

        path = self.network.shortest_path(src, dst)
        if len(path) < 2:
            raise ValueError(f"tunnel endpoints {src!r}->{dst!r} are not distinct nodes")
        tunnel = Tunnel(
            tunnel_id=self.allocate_label(),
            src=src,
            dst=dst,
            path=path,
            terminal_pops=terminal_pops,
        )

        # Label-switching rules at transit switches.
        for index in range(1, len(path) - 1):
            node = self.network[path[index]]
            if not isinstance(node, OpenFlowSwitch):
                raise TypeError(f"tunnel transit node {node.name!r} is not a switch")
            if not node.profile.supports_tunnels:
                raise ValueError(f"{node.name} ({node.profile.name}) cannot carry tunnels")
            out_port = self.network.port_between(path[index], path[index + 1])
            node.install_static(
                tunnel.transit_match(),
                priority=TUNNEL_RULE_PRIORITY,
                actions=[Output(out_port)],
            )

        # Terminal rule at the egress.
        egress = self.network[dst]
        if isinstance(egress, OpenFlowSwitch):
            actions: List[Action] = tunnel.terminal_pop_actions()
            actions.extend(terminal_extra_actions or [GotoTable(EGRESS_CONTINUE_TABLE)])
            egress.install_static(
                tunnel.transit_match(),
                priority=TUNNEL_RULE_PRIORITY,
                actions=actions,
            )
        # A non-switch egress (host) just receives the encapsulated packet;
        # hosts ignore residual encapsulation.

        self.tunnels[tunnel.tunnel_id] = tunnel
        self._by_signature[signature] = tunnel.tunnel_id
        return tunnel

    def get(self, tunnel_id: int) -> Optional[Tunnel]:
        return self.tunnels.get(tunnel_id)

    def between(self, src: str, dst: str) -> List[Tunnel]:
        """All tunnels between the endpoints (possibly several with
        different terminal behaviour)."""
        return [t for t in self.tunnels.values() if t.src == src and t.dst == dst]
