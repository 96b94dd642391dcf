"""Packet model with an MPLS encapsulation stack.

A :class:`Packet` carries the inner five-tuple plus a stack of
encapsulation headers (``encap``; the last element is outermost).  Scotch
uses a two-label scheme (paper §5.2): the physical switch pushes an inner
label that encodes the original ingress port, then the group-table bucket
pushes an outer label that identifies the tunnel; the vSwitch pops both
and attaches them to the Packet-In so the controller can recover the
(switch, port) the flow really entered on.

``count`` lets one Packet object stand for a back-to-back train of
identical data packets; every queue, rate and byte computation in the
simulator is ``count``-aware.  Control-path experiments always use
``count=1`` (each packet is its own new flow).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.net.flow import FlowKey

_packet_ids = itertools.count(1)

PROTO_TCP = 6

TCP_SYN = "SYN"
TCP_DATA = "DATA"


@dataclass(frozen=True)
class MplsHeader:
    """An MPLS shim header; ``label`` is the 20-bit label value."""

    label: int

    def __post_init__(self) -> None:
        if not 0 <= self.label < (1 << 20):
            raise ValueError(f"MPLS label out of range: {self.label!r}")


#: Wire overhead per encapsulation header, bytes.
MPLS_OVERHEAD = 4


class Packet:
    """A simulated packet (or a train of ``count`` identical packets)."""

    __slots__ = (
        "packet_id",
        "src_ip",
        "dst_ip",
        "proto",
        "src_port",
        "dst_port",
        "size",
        "count",
        "tcp_flag",
        "created_at",
        "encap",
        "_overhead",
        "popped_labels",
        "metadata",
        "hops",
    )

    def __init__(
        self,
        src_ip: str,
        dst_ip: str,
        proto: int = PROTO_TCP,
        src_port: int = 0,
        dst_port: int = 0,
        size: int = 1500,
        count: int = 1,
        tcp_flag: str = TCP_SYN,
        created_at: float = 0.0,
    ):
        if size <= 0:
            raise ValueError("packet size must be positive")
        if count <= 0:
            raise ValueError("packet count must be positive")
        self.packet_id: int = next(_packet_ids)
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.proto = proto
        self.src_port = src_port
        self.dst_port = dst_port
        self.size = size
        self.count = count
        self.tcp_flag = tcp_flag
        self.created_at = created_at
        self.encap: List[MplsHeader] = []
        self._overhead = 0  # wire bytes added by encap, maintained by push/pop
        self.popped_labels: List[int] = []
        self.metadata: Dict[str, Any] = {}
        self.hops: List[str] = []

    # ------------------------------------------------------------------
    # Encapsulation
    # ------------------------------------------------------------------
    def push(self, header: MplsHeader) -> None:
        """Push an encapsulation header (becomes outermost)."""
        self.encap.append(header)
        self._overhead += MPLS_OVERHEAD

    def pop(self) -> MplsHeader:
        """Pop the outermost encapsulation header."""
        if not self.encap:
            raise ValueError("pop on packet with empty encap stack")
        header = self.encap.pop()
        self._overhead -= MPLS_OVERHEAD
        return header

    @property
    def wire_bits(self) -> int:
        """Total bits for the whole train (used for link serialization)."""
        return (self.size + self._overhead) * 8 * self.count

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def flow_key(self) -> FlowKey:
        """The inner five-tuple (independent of encapsulation)."""
        return FlowKey(self.src_ip, self.dst_ip, self.proto, self.src_port, self.dst_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        encap = "".join(f"+M{h.label}" for h in self.encap)
        return (
            f"<Packet #{self.packet_id} {self.src_ip}:{self.src_port}->"
            f"{self.dst_ip}:{self.dst_port} p{self.proto} {self.tcp_flag}"
            f" x{self.count}{encap}>"
        )
