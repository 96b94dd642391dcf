"""Stateful middleboxes (paper §5.4, Fig. 8).

The policy-consistency design exists because middleboxes keep per-flow
state: a firewall that never saw a flow's first packet rejects its
mid-flow packets.  :class:`Firewall` models exactly that, which is what
the policy tests and the migration experiment use to demonstrate why
Scotch pins both the overlay and the physical path through the *same*
middlebox instance.

Middleboxes are bump-in-the-wire: two attachments (toward S_U and S_D);
a packet arriving on one side leaves on the other after ``LATENCY``.
They are excluded from ordinary route computation (``Network.
exclude_from_routing``) so traffic only crosses them by explicit policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Set

from repro.net.flow import FlowKey
from repro.net.node import Node
from repro.net.packet import TCP_SYN, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Per-packet processing latency of a middlebox, seconds.
LATENCY = 50e-6


class Middlebox(Node):
    """Base bump-in-the-wire element with per-packet processing latency."""

    def __init__(self, sim: "Simulator", name: str):
        super().__init__(sim, name)
        self.packets_in = 0
        self.packets_dropped = 0

    def receive(self, packet: Packet, in_port: int) -> None:
        self.packets_in += packet.count
        if not self.admit(packet):
            self.packets_dropped += packet.count
            return
        out_port = self._other_port(in_port)
        if out_port is None:
            self.packets_dropped += packet.count
            return
        self.sim.schedule(LATENCY, self.ports[out_port].send, packet)

    def _other_port(self, in_port: int) -> Optional[int]:
        others = [p for p in self.ports if p != in_port]
        return others[0] if others else None

    def admit(self, packet: Packet) -> bool:
        """Policy hook; subclasses decide whether the packet may pass."""
        return True


class Firewall(Middlebox):
    """Stateful firewall: admits flows whose first packet (SYN) it saw.

    A mid-flow packet of an unknown flow is dropped — the "lack of
    pre-established context" failure the paper warns about when a flow is
    naively re-routed through a different firewall instance.
    """

    def __init__(self, sim: "Simulator", name: str):
        super().__init__(sim, name)
        self._admitted: Set[FlowKey] = set()
        self.blocklist: Set[str] = set()
        self.rejected_unknown = 0
        self.rejected_blocked = 0

    def admit(self, packet: Packet) -> bool:
        if packet.src_ip in self.blocklist:
            self.rejected_blocked += packet.count
            return False
        key = packet.flow_key
        if key in self._admitted or key.reversed() in self._admitted:
            return True
        if packet.tcp_flag == TCP_SYN:
            self._admitted.add(key)
            return True
        self.rejected_unknown += packet.count
        return False

    def knows(self, key: FlowKey) -> bool:
        return key in self._admitted or key.reversed() in self._admitted

