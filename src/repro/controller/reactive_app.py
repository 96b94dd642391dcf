"""Vanilla reactive forwarding — the paper's baseline SDN behaviour.

Every Packet-In triggers: path computation to the destination host,
exact-match FlowMods along the path (make-before-break order), and a
Packet-Out of the buffered packet at the punting switch.  All FlowMods
are subject to the OFA's insertion-loss model, and the Packet-In itself
already survived the OFA bottleneck — which is why, under a flood, this
app exhibits exactly the Fig. 3 failure curve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.controller.base_app import BaseApp
from repro.controller.routing import Router
from repro.switch.actions import Output

if TYPE_CHECKING:  # pragma: no cover
    from repro.openflow.messages import PacketIn

#: Priority for reactively installed per-flow rules ("red" rules, §5.4).
REACTIVE_RULE_PRIORITY = 100
#: Idle timeout of those rules (they have no hard timeout).
IDLE_TIMEOUT = 10.0


class ReactiveForwardingApp(BaseApp):
    """Plain reactive L3 forwarding over the physical network."""

    def __init__(self):
        super().__init__()
        self.router: Optional[Router] = None
        self.flows_handled = 0
        self.unroutable = 0

    def start(self) -> None:
        self.router = Router(self.network)

    def packet_in(self, dpid: str, message: "PacketIn") -> None:
        packet = message.packet
        if packet is None:
            return
        path = self.router.path_to(dpid, packet.dst_ip)
        if path is None:
            self.unroutable += 1
            return
        self.flows_handled += 1
        for rule in self.router.rules_for_path(path, packet.flow_key):
            self.controller.flow_mod(
                rule.dpid,
                rule.match,
                REACTIVE_RULE_PRIORITY,
                rule.actions,
                idle_timeout=IDLE_TIMEOUT,
            )
        # Forward the buffered first packet explicitly.
        out_port = self.network.port_between(path[0], path[1]) if len(path) > 1 else None
        if out_port is not None:
            self.controller.packet_out(dpid, packet, [Output(out_port)], in_port=message.in_port)
