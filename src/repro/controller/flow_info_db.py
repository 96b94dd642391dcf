"""The Flow Info Database (paper §5.2).

"The controller maintains the flow's first-hop physical switch id and
the ingress port id at the Flow Info Database. Such information will be
used for large flow migration."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.flow import FlowKey

ROUTE_PENDING = "pending"
ROUTE_PHYSICAL = "physical"
ROUTE_OVERLAY = "overlay"
ROUTE_DROPPED = "dropped"


@dataclass
class FlowInfo:
    """What the controller knows about one observed flow."""

    key: FlowKey
    first_hop_switch: str
    ingress_port: int
    first_seen: float
    route: str = ROUTE_PENDING
    #: Entry vSwitch when the flow rides the overlay.
    entry_vswitch: Optional[str] = None
    #: Middlebox chain the flow's policy requires, in traversal order.
    middlebox_chain: List[str] = field(default_factory=list)
    #: (dpid, match) of the per-flow overlay rules installed for this
    #: flow, so migration can delete them afterwards.
    overlay_sites: List[tuple] = field(default_factory=list)
    #: Last time a flow-stats dump showed this flow's packet count
    #: *growing* — the controller's best signal that the flow is still
    #: sending (§5.5 pins only flows "currently being routed over the
    #: Scotch overlay").
    last_stats_seen: Optional[float] = None
    #: Packet count at the last stats dump (for the growth check).
    last_stats_packets: int = 0
    #: (dpid, actions) used to re-inject duplicate Packet-In payloads
    #: along the flow's chosen path while its rules are still settling.
    reinject: Optional[tuple] = None
    #: Packets punted while the flow still awaits its routing decision,
    #: held at the controller (the buffer_id role) and flushed along the
    #: chosen path once it exists.  Bounded by the app.
    held_packets: List = field(default_factory=list)
    migrated_at: Optional[float] = None


class FlowInfoDatabase:
    """Keyed by five-tuple; tracks route placement over the flow's life."""

    def __init__(self):
        self._flows: Dict[FlowKey, FlowInfo] = {}

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._flows

    def record(
        self,
        key: FlowKey,
        first_hop_switch: str,
        ingress_port: int,
        now: float,
        entry_vswitch: Optional[str] = None,
    ) -> FlowInfo:
        """Insert (or return the existing) record for a flow."""
        info = self._flows.get(key)
        if info is None:
            info = FlowInfo(
                key=key,
                first_hop_switch=first_hop_switch,
                ingress_port=ingress_port,
                first_seen=now,
                entry_vswitch=entry_vswitch,
            )
            self._flows[key] = info
        return info

    def get(self, key: FlowKey) -> Optional[FlowInfo]:
        return self._flows.get(key)

    def set_route(self, key: FlowKey, route: str, now: Optional[float] = None) -> None:
        info = self._flows[key]
        if route == ROUTE_PHYSICAL and info.route == ROUTE_OVERLAY and now is not None:
            info.migrated_at = now
        info.route = route

    def overlay_flows_via(self, first_hop_switch: str) -> List[FlowInfo]:
        return [
            info
            for info in self._flows.values()
            if info.route == ROUTE_OVERLAY and info.first_hop_switch == first_hop_switch
        ]

    def forget(self, key: FlowKey) -> None:
        self._flows.pop(key, None)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for info in self._flows.values():
            out[info.route] = out.get(info.route, 0) + 1
        return out
