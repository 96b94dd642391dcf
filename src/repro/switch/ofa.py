"""The OpenFlow Agent (OFA): the switch's weak software control plane.

This module encodes the paper's three core measurements:

1. **Packet-In generation is rate limited** (Fig. 4): packets punted by
   the data plane enter a bounded queue served at
   ``profile.packet_in_rate``; overflow packets are silently lost, which
   is exactly how legitimate flows "fail" in Fig. 3.

2. **Rule insertion loses requests beyond a lossless rate and saturates**
   (Fig. 9): each FlowMod-ADD is subjected to a rate-dependent admission
   (the fraction of rules actually committed falls as the attempted rate
   grows past ``install_lossless_rate``), and commits are processed by a
   server whose throughput caps at ``install_saturated_rate``.  The
   resulting successful-rate curve is ``a`` for ``a <= lossless`` and
   ``sat - (sat - lossless) * exp(-(a - lossless)/scale)`` beyond — a
   smooth rise that flattens at the measured plateau.

3. **Heavy rule writing stalls the data path** (Fig. 10): when the
   attempted insertion rate exceeds ``profile.degradation_knee``, the
   data plane's effective forwarding budget collapses to
   ``profile.datapath_degraded_pps`` (the datapath queries
   :meth:`datapath_capacity` per service).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.obs import path as obs_path
from repro.openflow.messages import (
    ADD,
    DELETE,
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FlowMod,
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    GroupMod,
    Message,
    PacketIn,
    PacketOut,
    RoleMod,
    RoleStatus,
)
from repro.sim.ratelimit import RateEstimator, RateLimitedServer
from repro.switch.flow_table import FlowEntry, TableFullError
from repro.switch.group_table import GroupEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.openflow.channel import ControlChannel
    from repro.sim.engine import Simulator
    from repro.switch.switch import OpenFlowSwitch

#: Fixed OFA processing delay for cheap control messages (stats dump,
#: echo, barrier): microseconds of CPU, not a throughput bottleneck.
_CHEAP_MESSAGE_DELAY = 1e-3

#: Age bound of the FlowMod attempt-rate window, seconds: the estimate
#: decays once insertions stop.
_ATTEMPT_WINDOW = 1.0


class OpenFlowAgent:
    """Control agent of one switch."""

    def __init__(self, sim: "Simulator", switch: "OpenFlowSwitch", channel: "ControlChannel"):
        self.sim = sim
        self.switch = switch
        self.profile = switch.profile
        self.channel = channel
        channel.switch_sink = self.handle_from_controller

        self._rng = sim.rng.stream(f"ofa:{switch.name}")
        self.packet_in_server = RateLimitedServer(
            sim,
            rate=self.profile.packet_in_rate,
            queue_capacity=self.profile.packet_in_queue,
            handler=self._emit_packet_in,
            name=f"{switch.name}.packet-in",
        )
        self.install_server = RateLimitedServer(
            sim,
            rate=self.profile.install_saturated_rate,
            queue_capacity=self.profile.install_queue,
            handler=self._commit_flow_mod,
            name=f"{switch.name}.install",
        )
        # 32 events keeps the estimator responsive at hundreds/second.
        self._attempt_meter = RateEstimator(window_events=32,
                                            window_seconds=_ATTEMPT_WINDOW)
        #: The Fig. 10 budget as last read from the meter (None: stale)
        #: and the oldest attempt time that read kept; see
        #: :meth:`datapath_capacity`.
        self._budget: Optional[float] = None
        self._budget_oldest = math.inf

        self.packet_ins_sent = 0
        self.packet_ins_dropped = 0
        self.installs_attempted = 0
        self.installs_succeeded = 0
        self.installs_failed = 0
        self.table_full_failures = 0
        #: Chaos-layer stall (docs/robustness.md): while ``sim.now`` is
        #: before this, inbound control messages are deferred — a wedged
        #: OFA CPU stops answering echoes without dropping the channel.
        self._stalled_until = 0.0
        self.stall_deferred = 0
        #: Controller-pool role state (docs/cluster.md).  None until the
        #: first RoleMod lands; single-controller deployments never send
        #: one, so these stay inert.
        self.master_id = None
        self.role_generation = 0
        self.stale_role_mods = 0

        self._obs = sim.obs
        metrics = sim.obs.metrics
        prefix = f"ofa.{switch.name}"
        metrics.gauge(f"{prefix}.packet_in_queue", self.packet_in_server.backlog)
        metrics.gauge(f"{prefix}.install_queue", self.install_server.backlog)
        # Constant, but exported as a gauge so saturation SLIs can
        # divide arrival rates by per-switch capacity generically.
        capacity = float(self.profile.packet_in_rate)
        metrics.gauge(f"{prefix}.packet_in_capacity",
                      lambda capacity=capacity: capacity)
        metrics.counter(f"{prefix}.packet_ins", self, "packet_ins_sent")
        metrics.counter(f"{prefix}.packet_in_drops", self, "packet_ins_dropped")
        metrics.counter(f"{prefix}.installs", self, "installs_succeeded")
        metrics.counter(f"{prefix}.install_failures", self, "installs_failed")
        metrics.counter(f"{prefix}.stall_deferred", self, "stall_deferred")

    # ------------------------------------------------------------------
    # Data plane -> controller (Packet-In)
    # ------------------------------------------------------------------
    def punt(self, packet: "Packet", in_port: int) -> bool:
        """Queue a packet for Packet-In generation.  Returns False when
        the OFA queue overflowed (the packet, and with it the flow's
        setup chance, is lost)."""
        traced = self._obs.tracer.enabled
        if traced:
            obs_path.punt_begin(self._obs, packet, self.switch.name, in_port)
        accepted = self.packet_in_server.submit((packet, in_port))
        if not accepted:
            self.packet_ins_dropped += 1
            if traced:
                obs_path.punt_dropped(self._obs, packet)
        return accepted

    def _emit_packet_in(self, item) -> None:
        packet, in_port = item
        metadata = dict(packet.metadata)
        if packet.popped_labels:
            # Scotch two-label scheme (§5.2): outermost label was the
            # tunnel id, the inner one encodes the original ingress port.
            metadata["tunnel_id"] = packet.popped_labels[0]
            if len(packet.popped_labels) > 1:
                metadata["inner_label"] = packet.popped_labels[1]
        message = PacketIn(
            datapath_id=self.switch.name,
            packet=packet,
            in_port=in_port,
            metadata=metadata,
        )
        self.packet_ins_sent += 1
        if self._obs.tracer.enabled:
            obs_path.packet_in_sent(self._obs, packet, self.switch.name)
        self.channel.send_to_controller(message)

    # ------------------------------------------------------------------
    # Controller -> switch
    # ------------------------------------------------------------------
    def stall(self, duration: float) -> None:
        """Freeze inbound control processing for ``duration`` seconds
        (fault injection: a busy/wedged OFA CPU).  Deferred messages are
        processed, in arrival order, when the stall lifts."""
        if duration < 0:
            raise ValueError("stall duration must be non-negative")
        self._stalled_until = max(self._stalled_until, self.sim.now + duration)

    def handle_from_controller(self, message: Message) -> None:
        if not self.switch.alive:
            return
        if self._stalled_until > self.sim.now:
            self.stall_deferred += 1
            self.sim.schedule(
                self._stalled_until - self.sim.now, self.handle_from_controller, message
            )
            return
        if isinstance(message, FlowMod):
            self._handle_flow_mod(message)
        elif isinstance(message, GroupMod):
            self._handle_group_mod(message)
        elif isinstance(message, PacketOut):
            self._handle_packet_out(message)
        elif isinstance(message, FlowStatsRequest):
            self.sim.schedule(_CHEAP_MESSAGE_DELAY, self._reply_flow_stats, message)
        elif isinstance(message, EchoRequest):
            self.sim.schedule(
                _CHEAP_MESSAGE_DELAY,
                self.channel.send_to_controller,
                EchoReply(request_xid=message.xid, datapath_id=self.switch.name),
            )
        elif isinstance(message, BarrierRequest):
            self.sim.schedule(
                _CHEAP_MESSAGE_DELAY,
                self.channel.send_to_controller,
                BarrierReply(request_xid=message.xid, datapath_id=self.switch.name),
            )
        elif isinstance(message, RoleMod):
            self.sim.schedule(_CHEAP_MESSAGE_DELAY, self._handle_role_mod, message)
        else:
            raise TypeError(f"OFA cannot handle {type(message).__name__}")

    # -- rule installation ---------------------------------------------
    def _success_probability(self, attempted_rate: float) -> float:
        """P(commit) such that successful-rate follows the Fig. 9 curve."""
        lossless = self.profile.install_lossless_rate
        sat = self.profile.install_saturated_rate
        if attempted_rate <= lossless:
            return 1.0
        # Tangent to the identity at the lossless point (scale equals the
        # plateau gap), so successful-rate is continuous, stays strictly
        # below attempted beyond the lossless rate, and flattens at the
        # measured plateau.
        scale = max(1.0, sat - lossless)
        successful = sat - (sat - lossless) * math.exp(-(attempted_rate - lossless) / scale)
        return min(1.0, successful / attempted_rate)

    def _handle_flow_mod(self, message: FlowMod) -> None:
        if message.command == DELETE:
            # Deletions are cheap OFA work and never the measured
            # bottleneck; apply after the fixed processing delay.
            self.sim.schedule(_CHEAP_MESSAGE_DELAY, self._apply_delete, message)
            return
        self.installs_attempted += 1
        tracer = self._obs.tracer
        span = tracer.begin(
            obs_path.SPAN_INSTALL, track=f"switch:{self.switch.name}",
            switch=self.switch.name,
        ) if tracer.enabled else -1
        # Admit due arrivals before the meter they read moves (datapath.py rule 1).
        self.switch.datapath.settle()
        meter = self._attempt_meter
        meter.observe(self.sim.now)
        self._budget = None
        if self._rng.random() > self._success_probability(meter.rate(self.sim.now)):
            self.installs_failed += 1
            tracer.end(span, outcome="lost")
            return
        if not self.install_server.submit((message, span)):
            self.installs_failed += 1
            tracer.end(span, outcome="queue_full")

    def _commit_flow_mod(self, item) -> None:
        message, span = item
        table = self.switch.datapath.table(message.table_id)
        entry = FlowEntry(
            match=message.match,
            priority=message.priority,
            actions=message.actions,
            idle_timeout=message.idle_timeout,
            cookie=message.cookie,
            notify_removal=message.notify_removal,
        )
        try:
            table.insert(entry, now=self.sim.now)
        except TableFullError:
            self.table_full_failures += 1
            self.installs_failed += 1
            self._obs.tracer.end(span, outcome="table_full")
            # Real switches report this (OFPFMFC_TABLE_FULL); the §3.3
            # TCAM-bottleneck mitigation depends on the controller
            # seeing it.
            self.channel.send_to_controller(
                ErrorMessage(datapath_id=self.switch.name, code="table_full"))
            return
        self.installs_succeeded += 1
        self._obs.tracer.end(span, outcome="committed")

    def _apply_delete(self, message: FlowMod) -> None:
        table = self.switch.datapath.table(message.table_id)
        table.remove(message.match, message.priority if message.priority else None)

    # -- groups, packet-out, stats ---------------------------------------
    def _handle_group_mod(self, message: GroupMod) -> None:
        groups = self.switch.datapath.groups
        if message.command == DELETE:
            groups.remove(message.group_id)
            return
        entry = GroupEntry(group_id=message.group_id, buckets=message.buckets)
        # ADD on an existing group is treated as replace (keeps
        # re-activation idempotent, matching OVS's permissive behaviour).
        if message.command == ADD and entry.group_id not in groups:
            groups.add(entry)
        else:
            groups.modify(entry)

    def _handle_role_mod(self, message: RoleMod) -> None:
        # OpenFlow generation_id fencing: only strictly newer
        # generations apply, so a delayed RoleMod from a deposed pool
        # leader cannot roll the mastership back.
        if message.generation <= self.role_generation and self.master_id is not None:
            self.stale_role_mods += 1
            self.channel.send_to_controller(
                ErrorMessage(datapath_id=self.switch.name, code="role_stale"))
            return
        self.role_generation = message.generation
        self.master_id = message.master_id
        self.channel.send_to_controller(RoleStatus(
            request_xid=message.xid,
            datapath_id=self.switch.name,
            master_id=message.master_id,
            generation=message.generation,
        ))

    def _handle_packet_out(self, message: PacketOut) -> None:
        if message.packet is None:
            return
        self.switch.datapath.execute_actions(
            message.packet, message.actions, in_port=message.in_port
        )

    def _reply_flow_stats(self, request: FlowStatsRequest) -> None:
        entries = []
        for table in self.switch.datapath.tables:
            if request.table_id is not None and table.table_id != request.table_id:
                continue
            for rule in table.entries():
                entries.append(
                    FlowStatsEntry(
                        match=rule.match,
                        table_id=table.table_id,
                        packets=rule.packets,
                        cookie=rule.cookie,
                    )
                )
        reply = FlowStatsReply(
            datapath_id=self.switch.name, entries=entries, request_xid=request.xid
        )
        self.channel.send_to_controller(reply)

    # ------------------------------------------------------------------
    # Rule expiry notifications
    # ------------------------------------------------------------------
    def notify_flow_removed(self, entry) -> None:
        """Called by the datapath's tables when a flagged rule idles out."""
        if not entry.notify_removal or not self.switch.alive:
            return
        message = FlowRemoved(datapath_id=self.switch.name, match=entry.match)
        self.sim.schedule(_CHEAP_MESSAGE_DELAY, self.channel.send_to_controller, message)

    # ------------------------------------------------------------------
    # Data-path interaction (Fig. 10)
    # ------------------------------------------------------------------
    def datapath_capacity(self, at: Optional[float] = None) -> float:
        """Effective forwarding budget given rule writes as of ``at``
        (default now): ``datapath_degraded_pps`` while the attempted
        FlowMod rate exceeds ``degradation_knee``, else ``datapath_pps``.

        The datapath asks once per train service, so the answer is
        cached.  The meter's rate changes only when it observes a
        FlowMod (which drops the cache) or when ``at`` ages its oldest
        time out of the window, tested with the same float comparison
        :meth:`RateEstimator.rate` prunes with.  A profile whose
        degraded rate equals its normal one never reads the meter.
        """
        profile = self.profile
        if profile.datapath_degraded_pps == profile.datapath_pps:
            return profile.datapath_pps
        if at is None:
            at = self.sim.now
        if self._budget is None or self._budget_oldest < at - _ATTEMPT_WINDOW:
            meter = self._attempt_meter
            self._budget = (profile.datapath_degraded_pps
                            if meter.rate(at) > profile.degradation_knee
                            else profile.datapath_pps)
            self._budget_oldest = meter.oldest
        return self._budget
