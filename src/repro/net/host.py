"""Hosts: traffic sources and sinks with tcpdump-style taps."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.flow import FlowSpec
from repro.net.node import Node
from repro.net.packet import TCP_DATA, TCP_SYN, Packet
from repro.net.tap import PacketRecorder
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Host(Node):
    """An end host with one NIC, send/receive taps, and flow generation."""

    def __init__(self, sim: "Simulator", name: str, ip: str):
        super().__init__(sim, name)
        self.ip = ip
        self.sent_tap = PacketRecorder(f"{name}.sent")
        self.recv_tap = PacketRecorder(f"{name}.recv")
        self.on_receive: Optional[Callable[[Packet], None]] = None

    @property
    def nic(self):
        """The host's single NIC port (first allocated)."""
        if not self.ports:
            raise RuntimeError(f"host {self.name} has no attached link")
        return self.ports[min(self.ports)]

    def receive(self, packet: Packet, in_port: int) -> None:
        # Residual encapsulation is stripped by the NIC (a host that
        # terminates a tunnel just sees the inner packet).
        while packet.encap:
            packet.pop()
        self.recv_tap.on_receive(packet, self.sim.now)
        if self.on_receive is not None:
            self.on_receive(packet)

    def send(self, packet: Packet) -> None:
        self.sent_tap.on_send(packet, self.sim.now)
        self.nic.send(packet)

    # ------------------------------------------------------------------
    # Flow generation
    # ------------------------------------------------------------------
    def start_flow(self, spec: FlowSpec) -> None:
        """Send a flow described by ``spec`` starting at ``spec.start_time``
        (absolute simulation time; must not be in the past)."""
        if spec.size_packets == 1:
            self.sim.schedule_at(spec.start_time, self._send_single, spec)
        else:
            self.sim.schedule_at(spec.start_time, self._start_multi, spec)

    def _make_packet(self, spec: FlowSpec, flag: str, count: int = 1) -> Packet:
        key = spec.key
        return Packet(
            src_ip=key.src_ip,
            dst_ip=key.dst_ip,
            proto=key.proto,
            src_port=key.src_port,
            dst_port=key.dst_port,
            size=spec.packet_size,
            count=count,
            tcp_flag=flag,
            created_at=self.sim.now,
        )

    def _send_single(self, spec: FlowSpec) -> None:
        self.send(self._make_packet(spec, TCP_SYN))

    def _start_multi(self, spec: FlowSpec) -> None:
        self.send(self._make_packet(spec, TCP_SYN))
        remaining = spec.size_packets - 1
        if remaining > 0:
            Process(self.sim, self._pump(spec, remaining), start_delay=1.0 / spec.rate_pps)

    def _pump(self, spec: FlowSpec, remaining: int):
        """Emit the rest of the flow at ``rate_pps``, batching ``spec.batch``
        packets into one train to bound event count for elephants."""
        while remaining > 0:
            count = min(spec.batch, remaining)
            self.send(self._make_packet(spec, TCP_DATA, count=count))
            remaining -= count
            if remaining > 0:
                yield count / spec.rate_pps


class EchoServer(Host):
    """A host that acknowledges what it receives.

    For every arriving packet train it sends a small ACK train back to
    the source.  The ACK's five-tuple is the reverse of the flow's, so
    at the first switch it looks like a brand-new flow and exercises the
    whole reactive path in the server->client direction — this is how
    bidirectional workloads are modelled (no TCP state machine; one ACK
    per received train).
    """

    ACK_SIZE = 60

    def __init__(self, sim: "Simulator", name: str, ip: str):
        super().__init__(sim, name, ip)
        self.acks_sent = 0
        self._acked = set()

    def receive(self, packet: Packet, in_port: int) -> None:
        super().receive(packet, in_port)
        # Do not ack ACKs (the peer may also be an EchoServer).
        if packet.metadata.get("is_ack"):
            return
        reverse = packet.flow_key.reversed()
        # The first ACK of a flow is flagged SYN so stateful middleboxes
        # admit the reverse direction.
        first = reverse not in self._acked
        self._acked.add(reverse)
        ack = Packet(
            src_ip=reverse.src_ip,
            dst_ip=reverse.dst_ip,
            proto=reverse.proto,
            src_port=reverse.src_port,
            dst_port=reverse.dst_port,
            size=self.ACK_SIZE,
            count=packet.count,
            tcp_flag=TCP_SYN if first else TCP_DATA,
            created_at=self.sim.now,
        )
        ack.metadata["is_ack"] = True
        self.acks_sent += ack.count
        self.send(ack)
