"""Flow identity and flow descriptors.

A flow is identified by its inner five-tuple, exactly as the paper's
controller installs rules "using both the source and destination IP
addresses" (§3.2) — a spoofed source therefore always looks like a new
flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional


class FlowKey(NamedTuple):
    """The canonical five-tuple flow identifier."""

    src_ip: str
    dst_ip: str
    proto: int
    src_port: int
    dst_port: int

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction (server -> client)."""
        return FlowKey(self.dst_ip, self.src_ip, self.proto, self.dst_port, self.src_port)

    def __str__(self) -> str:
        return f"{self.src_ip}:{self.src_port}>{self.dst_ip}:{self.dst_port}/{self.proto}"


@dataclass
class FlowSpec:
    """A workload-level description of one flow to be generated.

    ``size_packets`` is the total number of data packets; ``packet_size``
    is the per-packet payload bytes; ``rate_pps`` the send rate after the
    first packet.  Single-packet flows (the paper's stress tests) have
    ``size_packets == 1``.
    """

    key: FlowKey
    start_time: float
    size_packets: int = 1
    packet_size: int = 1500
    rate_pps: float = 100.0
    batch: int = 1

    def __post_init__(self) -> None:
        if self.size_packets <= 0:
            raise ValueError("flow size must be at least one packet")
        if self.packet_size <= 0:
            raise ValueError("packet size must be positive")
        if self.rate_pps <= 0:
            raise ValueError("flow rate must be positive")
        if self.batch <= 0:
            raise ValueError("batch must be positive")


@dataclass
class FlowRecord:
    """Per-flow delivery accounting kept by traffic sinks."""

    key: FlowKey
    first_sent_at: Optional[float] = None
    first_received_at: Optional[float] = None
    packets_sent: int = 0
    packets_received: int = 0
    bytes_received: int = 0
    last_received_at: Optional[float] = None

    @property
    def succeeded(self) -> bool:
        """A flow succeeded if at least one packet reached the sink (§3.2)."""
        return self.packets_received > 0
