"""OpenFlow 1.3-subset message types.

These are typed in-memory messages rather than wire encodings — the
paper's bottleneck is the OFA CPU, not the 1 Gb/s management port, so the
channel models latency and the OFA models processing cost.

Per the paper's configuration choice (§4.2) the Packet-In carries the
entire packet ("we configure the vswitch to forward the entire packet to
the controller, so that the controller can have more flexibility").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import
    # cycle (repro.switch.ofa imports this module at runtime).
    from repro.net.flow import FlowKey
    from repro.switch.actions import Action
    from repro.switch.group_table import Bucket
    from repro.switch.match import Match

_xids = itertools.count(1)


def next_xid() -> int:
    return next(_xids)


ADD = "add"
DELETE = "delete"
MODIFY = "modify"


@dataclass
class Message:
    """Base class; ``xid`` pairs requests with replies."""

    xid: int = field(default_factory=next_xid, init=False)


@dataclass
class PacketIn(Message):
    """Switch -> controller: a packet missed the tables (the only cause
    of a Packet-In: the vSwitch raises one for each new flow, §5.2)."""

    datapath_id: str = ""
    packet: Optional[Packet] = None
    in_port: int = 0
    #: Extra context: ``tunnel_id`` and ``inner_label`` when the packet
    #: arrived at a vSwitch over a Scotch tunnel (paper §5.2).
    metadata: Dict[str, Any] = field(default_factory=dict)


@dataclass
class FlowMod(Message):
    """Controller -> switch: add/remove a flow rule."""

    match: Optional["Match"] = None
    priority: int = 1
    actions: List["Action"] = field(default_factory=list)
    table_id: int = 0
    command: str = ADD
    idle_timeout: float = 0.0
    cookie: Optional[object] = None
    #: Ask the switch to send FlowRemoved when this rule expires (the
    #: OpenFlow SEND_FLOW_REM flag).  On by default for controller-
    #: installed rules so per-flow state can be retired.
    notify_removal: bool = True


@dataclass
class GroupMod(Message):
    """Controller -> switch: add/modify/remove a ``select`` group entry."""

    group_id: int = 0
    buckets: List[Bucket] = field(default_factory=list)
    command: str = ADD


@dataclass
class PacketOut(Message):
    """Controller -> switch: inject a packet with an explicit action list."""

    packet: Optional[Packet] = None
    actions: List[Action] = field(default_factory=list)
    in_port: int = 0


@dataclass
class FlowStatsRequest(Message):
    """Controller -> switch: dump per-rule counters (§5.3 flow-stats query)."""

    table_id: Optional[int] = None


@dataclass
class FlowStatsEntry:
    """One rule's packet count in a stats reply: what the §5.3 migrator
    reads to find elephants."""

    match: Match
    table_id: int
    packets: int
    cookie: Optional[object] = None


@dataclass
class FlowStatsReply(Message):
    datapath_id: str = ""
    entries: List[FlowStatsEntry] = field(default_factory=list)
    request_xid: int = 0


@dataclass
class SampleRecord:
    """Aggregated packet samples for one five-tuple at one vSwitch.

    ``samples`` raw sampled packets (NOT scaled by the sampling period);
    ``sampled_bytes`` the bytes of those sampled packets.  The
    controller-side estimator does the 1-in-N scale-up.
    """

    key: "FlowKey"
    samples: int
    sampled_bytes: int


@dataclass
class SampleReport(Message):
    """vSwitch -> controller: a batch of packet-sample records
    (sFlow/NetFlow-style export, docs/observability.md "Sampled
    telemetry").  Far smaller on the wire than a full flow-stats dump:
    only flows that saw sampled packets this window appear."""

    datapath_id: str = ""
    #: The 1-in-N sampling period the records were taken at.
    period: int = 1
    records: List[SampleRecord] = field(default_factory=list)
    window_start: float = 0.0


# ----------------------------------------------------------------------
# Nominal wire sizes
# ----------------------------------------------------------------------
# Messages here are typed in-memory objects, but the monitoring-cost
# accounting (docs/observability.md "Sampled telemetry") needs a byte
# model for the control channel.  Sizes follow OpenFlow 1.3 framing:
# an 8-byte header, a 16-byte multipart preamble, 56 bytes for a flow
# stats request (preamble + padded match), and ~96 bytes per flow stats
# entry (48-byte fixed part + a five-tuple OXM match rounded up).  A
# sample record is 28 bytes (IPv4 five-tuple + two counters), close to
# a NetFlow v5 record.
OFP_HEADER_BYTES = 8
MULTIPART_BASE_BYTES = 16
FLOW_STATS_REQUEST_BYTES = 56
FLOW_STATS_ENTRY_BYTES = 96
SAMPLE_RECORD_BYTES = 28


def wire_bytes(message: Message) -> int:
    """Nominal control-channel size of ``message`` in bytes."""
    kind = type(message)
    if kind is FlowStatsRequest:
        return FLOW_STATS_REQUEST_BYTES
    if kind is FlowStatsReply:
        return MULTIPART_BASE_BYTES + FLOW_STATS_ENTRY_BYTES * len(message.entries)
    if kind is SampleReport:
        return MULTIPART_BASE_BYTES + SAMPLE_RECORD_BYTES * len(message.records)
    return OFP_HEADER_BYTES


@dataclass
class FlowRemoved(Message):
    """Switch -> controller: a rule idled out.  Carries the match the
    controller retires its per-flow state (Flow Info Database entries)
    by."""

    datapath_id: str = ""
    match: Optional["Match"] = None


@dataclass
class ErrorMessage(Message):
    """Switch -> controller: a request failed (e.g. OFPET_FLOW_MOD_FAILED
    with OFPFMFC_TABLE_FULL when the TCAM is exhausted, §3.3)."""

    datapath_id: str = ""
    code: str = "table_full"


@dataclass
class EchoRequest(Message):
    """Heartbeat (paper §5.6: vSwitch failure detection)."""


@dataclass
class EchoReply(Message):
    request_xid: int = 0
    datapath_id: str = ""


@dataclass
class BarrierRequest(Message):
    """Fence: the switch replies only after processing earlier messages."""


@dataclass
class BarrierReply(Message):
    request_xid: int = 0
    datapath_id: str = ""


@dataclass
class RoleMod(Message):
    """Controller -> switch: set the pool member mastering this switch.

    The spirit of OFPT_ROLE_REQUEST with OFPCR_ROLE_MASTER: the elected
    pool leader hands a switch to a member, fenced by a monotonically
    increasing ``generation`` so a delayed RoleMod from a deposed
    leader cannot roll the assignment back (OpenFlow's generation_id
    check).  Stale generations earn an ErrorMessage with code
    ``role_stale``."""

    master_id: str = ""
    generation: int = 0


@dataclass
class RoleStatus(Message):
    """Switch -> controller: the switch's accepted (master, generation).

    Sent in response to an applied RoleMod — the OFPT_ROLE_REPLY.  The
    pool does not read it: a handoff completes when the Barrier that
    follows the RoleMod is acknowledged."""

    request_xid: int = 0
    datapath_id: str = ""
    master_id: str = ""
    generation: int = 0
