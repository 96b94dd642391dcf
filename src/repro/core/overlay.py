"""The Scotch overlay: vSwitch mesh, tunnels, labels, activation.

Construction is offline configuration (paper §5.6) — tunnels and their
static label-switching rules never touch any OFA.  Activation/withdrawal
rule *changes* at a physical switch go through its OFA via the
controller, exactly as in the paper.

Label scheme (§5.2):  every packet detoured to the overlay carries two
MPLS labels — the inner one identifies the original ingress port, the
outer one the switch->vSwitch tunnel.  The overlay keeps the two
registries that let the controller invert them: ``tunnel_origin``
(tunnel id -> physical switch) and ``port_labels`` (label -> (switch,
port)).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.controller.routing import HopRule
from repro.core.config import (
    LB_TABLE,
    MAIN_TABLE,
    PRIORITY_LB,
    PRIORITY_PHYSICAL_FLOW,
    PRIORITY_SCOTCH_DEFAULT,
    SCOTCH_GROUP_ID,
    VSWITCH_FLOW_TABLE,
    ScotchConfig,
)
from repro.net.host import Host
from repro.net.tunnel import Tunnel, TunnelFabric
from repro.openflow.messages import ADD, MODIFY, DELETE, FlowMod, GroupMod
from repro.switch.actions import Action, GotoTable, Group, Output, PushMpls
from repro.switch.group_table import Bucket
from repro.switch.match import Match
from repro.switch.switch import OpenFlowSwitch

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import FlowKey
    from repro.net.topology import Network


class OverlayError(Exception):
    """Raised on inconsistent overlay configuration."""


class ScotchOverlay:
    """Topology-level state of the overlay."""

    def __init__(self, network: "Network", config: Optional[ScotchConfig] = None):
        self.network = network
        self.config = config or ScotchConfig()
        self.fabric = TunnelFabric(network)

        self.mesh: List[str] = []
        self.backups: List[str] = []
        self.dead: Set[str] = set()

        #: host name -> its host vSwitch (if it has one).
        self.host_vswitch_of: Dict[str, str] = {}
        #: host name -> the mesh vSwitch covering its location.
        self.local_mesh_of: Dict[str, str] = {}
        #: physical switch -> the mesh vSwitches its group spreads over.
        self.assignment: Dict[str, List[str]] = {}
        #: switch->vSwitch tunnel registries (§5.2 mapping tables).
        self.tunnel_origin: Dict[int, str] = {}
        self.tunnel_entry_vswitch: Dict[int, str] = {}
        #: Tunnels by purpose (a (src, dst) pair may carry several
        #: tunnels with different terminal behaviour).
        self.switch_tunnels: Dict[Tuple[str, str], "Tunnel"] = {}
        self.mesh_tunnels: Dict[Tuple[str, str], "Tunnel"] = {}
        self.delivery_tunnels: Dict[Tuple[str, str], "Tunnel"] = {}
        #: (switch, port) <-> inner ingress-port label.
        self.port_labels: Dict[int, Tuple[str, int]] = {}
        self._label_of_port: Dict[Tuple[str, int], int] = {}
        #: switches where the overlay is currently active.
        self.active: Set[str] = set()
        self._round_robin = 0
        self._obs = network.sim.obs
        metrics = self._obs.metrics
        metrics.gauge("overlay.mesh_vswitches", fn=lambda: len(self.mesh))
        metrics.gauge("overlay.dead_vswitches", fn=lambda: len(self.dead))
        metrics.gauge("overlay.active_switches", fn=lambda: len(self.active))
        metrics.gauge("overlay.tunnels", fn=lambda: len(self.fabric.tunnels))

    # ------------------------------------------------------------------
    # Offline construction
    # ------------------------------------------------------------------
    def _vswitch(self, name: str) -> OpenFlowSwitch:
        node = self.network[name]
        if not isinstance(node, OpenFlowSwitch):
            raise OverlayError(f"{name!r} is not a switch")
        return node

    def add_mesh_vswitch(self, name: str, backup: bool = False) -> None:
        """Add a vSwitch to the (fully connected) mesh."""
        self._vswitch(name)
        if name in self.mesh or name in self.backups:
            raise OverlayError(f"vSwitch {name!r} already in the overlay")
        for peer in self.mesh + self.backups:
            self.mesh_tunnels[(name, peer)] = self.fabric.create(
                name, peer, terminal_pops=1
            )
            self.mesh_tunnels[(peer, name)] = self.fabric.create(
                peer, name, terminal_pops=1
            )
        (self.backups if backup else self.mesh).append(name)

    def set_host_delivery(self, host_name: str, host_vswitch: Optional[str], local_mesh: str) -> None:
        """Declare how ``host_name`` is reached from the overlay: via its
        host vSwitch when it has one (tunnel + static dst rules), else by
        a direct tunnel from its local mesh vSwitch."""
        if local_mesh not in self.mesh and local_mesh not in self.backups:
            raise OverlayError(f"{local_mesh!r} is not a mesh vSwitch")
        host = self.network[host_name]
        if not isinstance(host, Host):
            raise OverlayError(f"{host_name!r} is not a host")
        self.local_mesh_of[host_name] = local_mesh
        if host_vswitch is not None:
            hv = self._vswitch(host_vswitch)
            self.host_vswitch_of[host_name] = host_vswitch
            port_no = hv.port_to(host_name)
            if port_no is None:
                raise OverlayError(f"{host_vswitch!r} has no link to {host_name!r}")
            # Static delivery rules in both the decap-continue table and
            # the main table (so physical-path traffic needs no per-flow
            # rule at the host vSwitch either).
            for table_id in (MAIN_TABLE, VSWITCH_FLOW_TABLE):
                hv.install_static(
                    Match(dst_ip=host.ip),
                    priority=PRIORITY_PHYSICAL_FLOW,
                    actions=[Output(port_no.port_no)],
                    table_id=table_id,
                )
            for mesh_name in set(self.mesh + self.backups):
                if mesh_name != host_vswitch:
                    self.delivery_tunnels[(mesh_name, host_name)] = self.fabric.create(
                        mesh_name, host_vswitch, terminal_pops=1
                    )
        else:
            for mesh_name in set(self.mesh + self.backups):
                self.delivery_tunnels[(mesh_name, host_name)] = self.fabric.create(
                    mesh_name, host_name, terminal_pops=0
                )

    def port_label(self, switch: str, port_no: int) -> int:
        """The inner MPLS label for (switch, ingress port), allocated on
        first use and registered for reverse lookup."""
        key = (switch, port_no)
        label = self._label_of_port.get(key)
        if label is None:
            label = self.fabric.allocate_label()
            self._label_of_port[key] = label
            self.port_labels[label] = key
        return label

    def register_switch(self, switch_name: str, vswitches: Optional[Sequence[str]] = None) -> None:
        """Connect a physical switch to the overlay: pick its serving
        vSwitches, build the tunnels (to backups too, for failover), and
        pre-allocate its ingress-port labels."""
        switch = self.network[switch_name]
        if not isinstance(switch, OpenFlowSwitch):
            raise OverlayError(f"{switch_name!r} is not a switch")
        if not switch.profile.supports_tunnels or not switch.profile.supports_groups:
            raise OverlayError(
                f"{switch_name} ({switch.profile.name}) lacks tunnel/group support"
            )
        if vswitches is None:
            if not self.mesh:
                raise OverlayError("overlay has no mesh vSwitches")
            count = min(self.config.vswitches_per_switch, len(self.mesh))
            start = self._round_robin
            vswitches = [self.mesh[(start + i) % len(self.mesh)] for i in range(count)]
            self._round_robin += count
        for vswitch_name in list(vswitches) + self.backups:
            tunnel = self.fabric.create(switch_name, vswitch_name, terminal_pops=2)
            self.switch_tunnels[(switch_name, vswitch_name)] = tunnel
            self.tunnel_origin[tunnel.tunnel_id] = switch_name
            self.tunnel_entry_vswitch[tunnel.tunnel_id] = vswitch_name
        self.assignment[switch_name] = list(vswitches)
        for port_no in switch.ports:
            self.port_label(switch_name, port_no)

    def attribute_packet_in(self, dpid: str, message) -> Optional[Tuple[str, int]]:
        """Recover the (origin physical switch, ingress port) of a
        Packet-In that arrived over the overlay (via its tunnel id and
        inner ingress-port label, §5.2).  Returns None for Packet-Ins
        that did not come through a Scotch tunnel."""
        tunnel_id = message.metadata.get("tunnel_id")
        if tunnel_id is None or tunnel_id not in self.tunnel_origin:
            return None
        origin = self.tunnel_origin[tunnel_id]
        if self._obs.metrics.enabled:
            # Per-tunnel relay load: the control-plane "utilization" of
            # the switch->vSwitch tunnel this Packet-In rode in on.
            entry = self.tunnel_entry_vswitch.get(tunnel_id)
            self._obs.metrics.counter(
                f"overlay.tunnel.{origin}->{entry}.packet_ins"
            ).inc()
        inner = message.metadata.get("inner_label")
        port_info = self.port_labels.get(inner) if inner is not None else None
        return origin, (port_info[1] if port_info else 0)

    # ------------------------------------------------------------------
    # Activation / withdrawal rule sets (sent by the app via the controller)
    # ------------------------------------------------------------------
    def live_assignment(self, switch_name: str) -> List[str]:
        """The switch's serving vSwitches with dead ones replaced by
        backups (in order), as §5.6's bucket replacement does."""
        serving = list(self.assignment.get(switch_name, ()))
        spares = [b for b in self.backups if b not in self.dead and b not in serving]
        out = []
        for name in serving:
            if name in self.dead:
                if spares:
                    out.append(spares.pop(0))
            else:
                out.append(name)
        return out

    def group_buckets(self, switch_name: str) -> List[Bucket]:
        buckets: List[Bucket] = []
        for vswitch_name in self.live_assignment(switch_name):
            tunnel = self.switch_tunnels.get((switch_name, vswitch_name))
            if tunnel is None:
                raise OverlayError(f"no tunnel {switch_name}->{vswitch_name}")
            buckets.append(
                Bucket(actions=tunnel.entry_actions(self.network), label=vswitch_name)
            )
        if not buckets:
            raise OverlayError(f"no live vSwitches serve {switch_name}")
        return buckets

    def activation_messages(self, switch_name: str) -> Tuple[GroupMod, List[FlowMod]]:
        """The GroupMod + FlowMods that turn the overlay on at a switch:
        one default rule per ingress port (push port label, go to the LB
        table) and the LB table's group rule (§5.1, §5.2)."""
        switch = self.network[switch_name]
        group = GroupMod(
            group_id=SCOTCH_GROUP_ID,
            buckets=self.group_buckets(switch_name),
            command=ADD,
        )
        mods: List[FlowMod] = []
        for port_no in switch.ports:
            mods.append(
                FlowMod(
                    match=Match(in_port=port_no),
                    priority=PRIORITY_SCOTCH_DEFAULT,
                    actions=[
                        PushMpls(self.port_label(switch_name, port_no)),
                        GotoTable(LB_TABLE),
                    ],
                    table_id=MAIN_TABLE,
                )
            )
        mods.append(
            FlowMod(
                match=Match.any(),
                priority=PRIORITY_LB,
                actions=[Group(SCOTCH_GROUP_ID)],
                table_id=LB_TABLE,
            )
        )
        return group, mods

    def withdrawal_messages(self, switch_name: str) -> List[FlowMod]:
        """FlowMod deletes removing the per-port default-to-overlay rules
        (§5.5 step two).

        The LB-table rule and the select group are deliberately left in
        place: they are unreachable except via the defaults — and via the
        per-flow *pin* rules withdrawal installs, which jump to the LB
        table so the residual flows keep hashing to their vSwitches.
        """
        switch = self.network[switch_name]
        return [
            FlowMod(
                match=Match(in_port=port_no),
                priority=PRIORITY_SCOTCH_DEFAULT,
                table_id=MAIN_TABLE,
                command=DELETE,
            )
            for port_no in switch.ports
        ]

    # ------------------------------------------------------------------
    # Overlay routing
    # ------------------------------------------------------------------
    def exit_vswitch_for(self, host_name: str) -> str:
        exit_name = self.local_mesh_of.get(host_name)
        if exit_name is None:
            raise OverlayError(f"host {host_name!r} has no overlay delivery mapping")
        if exit_name in self.dead:
            for candidate in self.backups + self.mesh:
                if candidate not in self.dead:
                    return candidate
            raise OverlayError("no live vSwitch can deliver")
        return exit_name

    def delivery_actions(self, mesh_vswitch: str, host_name: str) -> List[Action]:
        """Actions at ``mesh_vswitch`` that deliver to the host: enter the
        delivery tunnel toward its host vSwitch (or the host itself)."""
        tunnel = self.delivery_tunnels.get((mesh_vswitch, host_name))
        if tunnel is None:
            raise OverlayError(f"no delivery tunnel {mesh_vswitch}->{host_name}")
        return tunnel.entry_actions(self.network)

    def mesh_hop_actions(self, src_vswitch: str, dst_vswitch: str) -> List[Action]:
        tunnel = self.mesh_tunnels.get((src_vswitch, dst_vswitch))
        if tunnel is None:
            raise OverlayError(f"no mesh tunnel {src_vswitch}->{dst_vswitch}")
        return tunnel.entry_actions(self.network)

    def overlay_route(
        self, key: "FlowKey", entry_vswitch: str, dst_host: str
    ) -> List[HopRule]:
        """Per-flow vSwitch rules forwarding ``key`` from its entry
        vSwitch to the destination host across the mesh, **last hop
        first** (make-before-break).  All targets are vSwitches (cheap
        installs)."""
        match = Match.for_flow(key)
        exit_vswitch = self.exit_vswitch_for(dst_host)
        # Build in forward (entry -> exit) order, then flip once.
        rules: List[HopRule] = []
        if entry_vswitch == exit_vswitch:
            rules.append(
                HopRule(entry_vswitch, match, self.delivery_actions(entry_vswitch, dst_host))
            )
        else:
            rules.append(
                HopRule(entry_vswitch, match, self.mesh_hop_actions(entry_vswitch, exit_vswitch))
            )
            rules.append(
                HopRule(exit_vswitch, match, self.delivery_actions(exit_vswitch, dst_host))
            )
        rules.reverse()
        return rules

    # ------------------------------------------------------------------
    # Failure handling hooks (driven by core.failover)
    # ------------------------------------------------------------------
    def mark_dead(self, vswitch_name: str) -> List[str]:
        """Mark a vSwitch dead; returns the switches whose group buckets
        must be refreshed."""
        self.dead.add(vswitch_name)
        return [s for s, serving in self.assignment.items() if vswitch_name in serving]

    def mark_alive(self, vswitch_name: str) -> None:
        self.dead.discard(vswitch_name)

    def refresh_group(self, switch_name: str) -> GroupMod:
        """A GroupMod MODIFY with the current live bucket set."""
        return GroupMod(
            group_id=SCOTCH_GROUP_ID,
            buckets=self.group_buckets(switch_name),
            command=MODIFY,
        )
