"""Middlebox policy consistency (paper §5.4, Fig. 8).

A policy maps flows to an ordered middlebox chain.  Scotch guarantees
that the overlay path and any later physical path traverse the **same
middlebox instances**, because middleboxes are stateful (see
:mod:`repro.net.middlebox`).

Plumbing, configured offline per attached middlebox:

* tunnels from every mesh vSwitch to the middlebox's upstream switch
  S_U, whose static terminal rule decapsulates and outputs straight into
  the middlebox ("the upstream physical switch decapsulates the tunneled
  packet ... so that the middlebox sees the original packet");
* a static *green* rule at the downstream switch S_D matching the
  middlebox-facing ingress port that re-encapsulates everything into a
  tunnel toward the middlebox's **aggregation vSwitch** ("a few
  dedicated vswitches in the mesh that are close to the middleboxes can
  serve as dedicated tunnel aggregation points");
* migrated (red) per-flow rules at S_D carry higher priority, so one
  extra rule per elephant pulls exactly that flow onto the physical
  path — all other flows keep sharing the green rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.controller.routing import HopRule
from repro.core.config import PRIORITY_SCOTCH_DEFAULT
from repro.core.overlay import OverlayError, ScotchOverlay
from repro.switch.actions import Action
from repro.switch.match import Match

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import FlowKey
    from repro.net.topology import Network

#: Priority of the green S_D re-encapsulation rule: above the Scotch
#: per-port defaults (so middlebox output is never re-labelled as a new
#: ingress) but far below red per-flow rules.
PRIORITY_MB_GREEN = PRIORITY_SCOTCH_DEFAULT + 2


@dataclass
class MiddleboxAttachment:
    """How one middlebox hangs off the physical network (Fig. 8)."""

    name: str
    upstream: str  # S_U
    downstream: str  # S_D
    aggregation_vswitch: str
    #: mesh vSwitch name -> its tunnel into S_U (terminating into the
    #: middlebox's port).
    in_tunnels: Dict[str, object] = field(default_factory=dict)
    #: The S_D -> aggregation-vSwitch tunnel (label kept on: the
    #: aggregation vSwitch matches it to tell the post-middlebox leg
    #: apart from a fresh arrival of the same flow).
    out_tunnel: Optional[object] = None


@dataclass
class Policy:
    """A flow predicate plus the middlebox chain it must traverse."""

    name: str
    predicate: Callable[["FlowKey"], bool]
    chain: List[str] = field(default_factory=list)


class PolicyRegistry:
    """Registered policies + middlebox attachments + path computation."""

    def __init__(self, network: "Network", overlay: ScotchOverlay):
        self.network = network
        self.overlay = overlay
        self.policies: List[Policy] = []
        self.attachments: Dict[str, MiddleboxAttachment] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_policy(self, policy: Policy) -> None:
        for middlebox in policy.chain:
            if middlebox not in self.attachments:
                raise OverlayError(f"policy {policy.name!r}: middlebox {middlebox!r} not attached")
        self.policies.append(policy)

    def attach_middlebox(self, name: str, upstream: str, downstream: str) -> MiddleboxAttachment:
        """Register a middlebox between S_U=``upstream`` and
        S_D=``downstream`` and install its static overlay plumbing; the
        first mesh vSwitch aggregates its output."""
        if not self.overlay.mesh:
            raise OverlayError("overlay has no mesh vSwitches for aggregation")
        attachment = MiddleboxAttachment(name, upstream, downstream, self.overlay.mesh[0])
        self.attachments[name] = attachment
        self.network.exclude_from_routing(name)
        self._install_plumbing(attachment)
        return attachment

    def _install_plumbing(self, attachment: MiddleboxAttachment) -> None:
        from repro.switch.actions import Output  # local to avoid cycle at import time

        fabric = self.overlay.fabric
        network = self.network
        mb_port_at_su = network.port_between(attachment.upstream, attachment.name)
        # Mesh vSwitch -> S_U tunnels terminating straight into the middlebox.
        for vswitch in self.overlay.mesh + self.overlay.backups:
            attachment.in_tunnels[vswitch] = fabric.create(
                vswitch,
                attachment.upstream,
                terminal_pops=1,
                terminal_extra_actions=[Output(mb_port_at_su)],
            )
        # S_D -> aggregation vSwitch tunnel (pops=0: the label stays on
        # so the aggregation vSwitch can distinguish the return leg)
        # plus the shared green rule at S_D.
        attachment.out_tunnel = fabric.create(
            attachment.downstream, attachment.aggregation_vswitch, terminal_pops=0
        )
        mb_port_at_sd = network.port_between(attachment.downstream, attachment.name)
        sd_switch = network[attachment.downstream]
        sd_switch.install_static(
            Match(in_port=mb_port_at_sd),
            priority=PRIORITY_MB_GREEN,
            actions=attachment.out_tunnel.entry_actions(network),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def chain_for(self, key: "FlowKey") -> List[str]:
        """Middlebox chain of the first matching policy (empty if none)."""
        for policy in self.policies:
            if policy.predicate(key):
                return list(policy.chain)
        return []

    # ------------------------------------------------------------------
    # Path computation honoring a chain
    # ------------------------------------------------------------------
    def physical_path(self, src_switch: str, dst_node: str, chain: Sequence[str]) -> List[str]:
        """Node path src -> (S_U, mb, S_D)* -> dst over the physical
        network.  Without a chain this is the plain shortest path."""
        if not chain:
            return self.network.shortest_path(src_switch, dst_node)
        path: List[str] = []
        cursor = src_switch
        for middlebox in chain:
            attachment = self.attachments[middlebox]
            segment = self.network.shortest_path(cursor, attachment.upstream)
            path.extend(segment if not path else segment[1:])
            path.extend([middlebox, attachment.downstream])
            cursor = attachment.downstream
        tail = self.network.shortest_path(cursor, dst_node)
        path.extend(tail[1:])
        return path

    def overlay_route(
        self, key: "FlowKey", entry_vswitch: str, dst_host: str, chain: Sequence[str]
    ):
        """Per-flow vSwitch rules for an overlay path through ``chain``,
        last hop first (a list of :class:`~repro.controller.routing.HopRule`).

        The flow hops: entry vSwitch -> (tunnel) S_U -> middlebox -> S_D
        -> (green tunnel, label kept) aggregation vSwitch -> ... -> exit
        vSwitch -> delivery.  Only vSwitches need per-flow rules; the
        S_U/S_D legs are the static plumbing installed at attachment
        time.

        The post-middlebox rule at the aggregation vSwitch matches the
        flow *plus* the green tunnel's label at a higher priority —
        necessary because the same vSwitch may also be the flow's entry
        (fresh, label-less arrivals must keep hitting the into-middlebox
        rule, not the onward one).
        """
        if not chain:
            return self.overlay.overlay_route(key, entry_vswitch, dst_host)
        match = Match.for_flow(key)
        rules: List[HopRule] = []
        cursor = entry_vswitch
        incoming_label: Optional[int] = None  # label on arrival at `cursor`
        for middlebox in chain:
            attachment = self.attachments[middlebox]
            into_mb = attachment.in_tunnels.get(cursor)
            if into_mb is None:
                raise OverlayError(f"no tunnel {cursor}->{attachment.upstream}")
            rules.append(
                self._leg_rule(cursor, match, incoming_label, into_mb.entry_actions(self.network))
            )
            cursor = attachment.aggregation_vswitch
            incoming_label = attachment.out_tunnel.tunnel_id
        # From the last aggregation vSwitch onward, standard overlay
        # routing — but fold its first (cursor) hop into the
        # label-qualified rule.
        tail = self.overlay.overlay_route(key, cursor, dst_host)
        tail.reverse()  # forward order
        assert tail[0].dpid == cursor
        rules.append(self._leg_rule(cursor, match, incoming_label, tail[0].actions))
        rules.extend(tail[1:])
        rules.reverse()
        return rules

    def _leg_rule(self, dpid: str, match: Match, incoming_label: Optional[int], actions: List[Action]):
        """A per-flow rule for one overlay leg.  When the packet arrives
        still carrying a green-tunnel label, the rule matches that label
        at elevated priority and pops it before forwarding."""
        from repro.core.config import PRIORITY_PHYSICAL_FLOW
        from repro.switch.actions import PopMpls

        if incoming_label is None:
            return HopRule(dpid, match, list(actions))
        qualified = Match(mpls_label=incoming_label, **match.fields)
        return HopRule(
            dpid, qualified, [PopMpls()] + list(actions), priority=PRIORITY_PHYSICAL_FLOW + 1
        )
