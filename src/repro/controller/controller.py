"""The central OpenFlow controller."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs import path as obs_path
from repro.openflow.messages import (
    ADD,
    BarrierReply,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FlowMod,
    FlowRemoved,
    FlowStatsReply,
    FlowStatsRequest,
    GroupMod,
    Message,
    PacketIn,
    PacketOut,
    RoleStatus,
    SampleReport,
    wire_bytes,
)
from repro.switch.match import Match

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.base_app import BaseApp
    from repro.net.topology import Network
    from repro.sim.engine import Simulator
    from repro.switch.switch import OpenFlowSwitch


class DatapathHandle:
    """The controller's view of one connected switch."""

    def __init__(self, switch: "OpenFlowSwitch"):
        self.switch = switch
        self.dpid = switch.name
        self.channel = switch.channel
        self.profile = switch.profile

    def send(self, message: Message) -> None:
        self.channel.send_to_switch(message)


class OpenFlowController:
    """Event dispatcher + convenience senders, in the Ryu mould."""

    def __init__(self, sim: "Simulator", network: "Network"):
        self.sim = sim
        self.network = network
        self.datapaths: Dict[str, DatapathHandle] = {}
        self.apps: List["BaseApp"] = []
        self.packet_ins_received = 0
        self.stats_replies_received = 0
        self.sample_reports_received = 0
        self.errors_received = 0
        # Monitoring cost (docs/observability.md, "Sampled telemetry"):
        # how much control-channel attention flow measurement itself
        # consumes.  Byte counts use the nominal wire model of
        # repro.openflow.messages.wire_bytes; the ``monitoring_bytes_rate``
        # SLI aggregates the ``stats.bytes.*`` family.
        self.stats_polls_sent = 0
        self.stats_reply_entries = 0
        self.sample_records_received = 0
        self.stats_bytes_requests = 0
        self.stats_bytes_replies = 0
        self.stats_bytes_samples = 0
        self._obs = sim.obs
        metrics = sim.obs.metrics
        metrics.counter("controller.packet_ins", self, "packet_ins_received")
        metrics.counter("controller.errors", self, "errors_received")
        metrics.counter("stats.polls_sent", self, "stats_polls_sent")
        metrics.counter("stats.replies", self, "stats_replies_received")
        metrics.counter("stats.reply_entries", self, "stats_reply_entries")
        metrics.counter("stats.bytes.requests", self, "stats_bytes_requests")
        metrics.counter("stats.bytes.replies", self, "stats_bytes_replies")
        metrics.counter("stats.sample_reports", self, "sample_reports_received")
        metrics.counter("stats.sample_records", self, "sample_records_received")
        metrics.counter("stats.bytes.samples", self, "stats_bytes_samples")

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_switch(self, switch: "OpenFlowSwitch") -> DatapathHandle:
        if switch.name in self.datapaths:
            raise ValueError(f"switch {switch.name!r} already registered")
        handle = DatapathHandle(switch)
        switch.channel.controller_sink = self._receive
        self.datapaths[switch.name] = handle
        return handle

    def add_app(self, app: "BaseApp") -> "BaseApp":
        app.bind(self)
        self.apps.append(app)
        app.start()
        return app

    def datapath(self, dpid: str) -> DatapathHandle:
        return self.datapaths[dpid]

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------
    def _receive(self, dpid: str, message: Message) -> None:
        if isinstance(message, PacketIn):
            self.packet_ins_received += 1
            packet = message.packet
            traced = packet is not None and self._obs.tracer.enabled
            if traced:
                obs_path.packet_in_received(
                    self._obs, packet, dpid,
                    relayed=message.metadata.get("tunnel_id") is not None,
                )
            for app in self.apps:
                app.packet_in(dpid, message)
            # Apps that decide asynchronously (Scotch's Fig. 7 queues)
            # mark the packet deferred and close the trace at decision
            # time; everything else (reactive installs, unclaimed
            # Packet-Ins) is settled by the time dispatch returns.
            if traced and not obs_path.deferred(packet):
                obs_path.decision(self._obs, packet, route="inline")
        elif isinstance(message, FlowStatsReply):
            self.stats_replies_received += 1
            self.stats_reply_entries += len(message.entries)
            self.stats_bytes_replies += wire_bytes(message)
            for app in self.apps:
                app.stats_reply(dpid, message)
        elif isinstance(message, SampleReport):
            self.sample_reports_received += 1
            self.sample_records_received += len(message.records)
            self.stats_bytes_samples += wire_bytes(message)
            for app in self.apps:
                app.sample_report(dpid, message)
        elif isinstance(message, FlowRemoved):
            for app in self.apps:
                app.flow_removed(dpid, message)
        elif isinstance(message, ErrorMessage):
            self.errors_received += 1
            for app in self.apps:
                app.error(dpid, message)
        elif isinstance(message, EchoReply):
            for app in self.apps:
                app.echo_reply(dpid, message)
        elif isinstance(message, BarrierReply):
            for app in self.apps:
                app.barrier_reply(dpid, message)
        elif isinstance(message, RoleStatus):
            pass  # no app reads it: the pool acts on the RoleMod's Barrier
        else:
            raise TypeError(f"controller cannot handle {type(message).__name__}")

    # ------------------------------------------------------------------
    # Outbound helpers
    # ------------------------------------------------------------------
    def flow_mod(
        self,
        dpid: str,
        match: Match,
        priority: int,
        actions: list,
        table_id: int = 0,
        command: str = ADD,
        idle_timeout: float = 0.0,
        cookie: Optional[object] = None,
    ) -> FlowMod:
        message = FlowMod(
            match=match,
            priority=priority,
            actions=actions,
            table_id=table_id,
            command=command,
            idle_timeout=idle_timeout,
            cookie=cookie,
        )
        self.datapaths[dpid].send(message)
        return message

    def group_mod(self, dpid: str, group_id: int, buckets: list, command: str = ADD) -> GroupMod:
        message = GroupMod(group_id=group_id, buckets=buckets, command=command)
        self.datapaths[dpid].send(message)
        return message

    def packet_out(self, dpid: str, packet, actions: list, in_port: int = 0) -> PacketOut:
        message = PacketOut(packet=packet, actions=actions, in_port=in_port)
        self.datapaths[dpid].send(message)
        return message

    def request_flow_stats(self, dpid: str, table_id: Optional[int] = None) -> FlowStatsRequest:
        message = FlowStatsRequest(table_id=table_id)
        self.stats_polls_sent += 1
        self.stats_bytes_requests += wire_bytes(message)
        self.datapaths[dpid].send(message)
        return message

    def echo(self, dpid: str) -> EchoRequest:
        message = EchoRequest()
        self.datapaths[dpid].send(message)
        return message
