"""Packet recording — the simulator's tcpdump — and the paper's §3.2
metric computed from it.

Hosts attach a :class:`PacketRecorder` to their NIC; the recorder indexes
traffic by flow key, which is all the failure-fraction computation and
the trace-driven experiment's FCT computation need.

"We define the client flow failure fraction to be the fraction of client
flows that are not able to pass through the switch and reach the server.
The client flow failure fraction is computed using the collected network
traces." (§3.2) — :func:`client_flow_failure_fraction`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Union

from repro.net.flow import FlowKey, FlowRecord
from repro.net.packet import Packet


class PacketRecorder:
    """Records send or receive events per flow at one vantage point."""

    def __init__(self, name: str = "tap"):
        self.name = name
        self.records: Dict[FlowKey, FlowRecord] = {}
        self.total_packets = 0

    def _record(self, key: FlowKey) -> FlowRecord:
        record = self.records.get(key)
        if record is None:
            record = FlowRecord(key)
            self.records[key] = record
        return record

    def on_send(self, packet: Packet, now: float) -> None:
        record = self._record(packet.flow_key)
        if record.first_sent_at is None:
            record.first_sent_at = now
        record.packets_sent += packet.count

    def on_receive(self, packet: Packet, now: float) -> None:
        record = self._record(packet.flow_key)
        if record.first_received_at is None:
            record.first_received_at = now
        record.last_received_at = now
        record.packets_received += packet.count
        record.bytes_received += packet.size * packet.count
        self.total_packets += packet.count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def flow(self, key: FlowKey) -> Optional[FlowRecord]:
        return self.records.get(key)

    def received_flow_keys(self) -> Set[FlowKey]:
        return {k for k, r in self.records.items() if r.packets_received > 0}

    def received_in(self, start: float, end: float) -> Set[FlowKey]:
        """Flows whose first packet arrived within [start, end)."""
        return {
            k
            for k, r in self.records.items()
            if r.first_received_at is not None and start <= r.first_received_at < end
        }


def client_flow_failure_fraction(
    client_tap: PacketRecorder,
    server_tap: Union[PacketRecorder, Iterable[PacketRecorder]],
    start: Optional[float] = None,
    end: Optional[float] = None,
    src_prefix: str = "",
) -> float:
    """Fraction of flows the client sent whose packets never reached the
    server, computed from the two packet traces.  ``server_tap`` may be
    several sink taps (a multi-destination workload): a flow failed
    when none of them ever saw it.

    ``start``/``end`` (on the client's first-send time) restrict the
    computation to a measurement window, excluding warm-up/cool-down.
    ``src_prefix`` keeps only flows from matching source addresses — a
    legitimate client sharing the attacker's host, hence its tap.
    """
    sent = {
        key
        for key, record in client_tap.records.items()
        if record.packets_sent > 0
        and key.src_ip.startswith(src_prefix)
        and (start is None or (record.first_sent_at is not None and record.first_sent_at >= start))
        and (end is None or (record.first_sent_at is not None and record.first_sent_at < end))
    }
    if not sent:
        return 0.0
    taps = [server_tap] if isinstance(server_tap, PacketRecorder) else server_tap
    arrived = set().union(*(tap.received_flow_keys() for tap in taps))
    failed = sum(1 for key in sent if key not in arrived)
    return failed / len(sent)
