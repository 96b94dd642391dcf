"""The paper's §3.2 metric: client flow failure fraction.

"We define the client flow failure fraction to be the fraction of client
flows that are not able to pass through the switch and reach the server.
The client flow failure fraction is computed using the collected network
traces."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.metrics.recorder import PacketRecorder


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


@dataclass
class FlowSuccessStats:
    """Aggregate delivery statistics at one sink."""

    flows_seen: int
    flows_succeeded: int
    packets: int
    bytes: int

    @property
    def success_fraction(self) -> float:
        return self.flows_succeeded / self.flows_seen if self.flows_seen else 0.0


def flow_success_stats(sent_tap: PacketRecorder, sink_tap: PacketRecorder) -> FlowSuccessStats:
    """Delivery stats for every flow recorded as sent at ``sent_tap``."""
    sent = sent_tap.sent_flow_keys()
    arrived = sink_tap.received_flow_keys()
    return FlowSuccessStats(
        flows_seen=len(sent),
        flows_succeeded=sum(1 for key in sent if key in arrived),
        packets=sink_tap.total_packets,
        bytes=sink_tap.total_bytes,
    )
