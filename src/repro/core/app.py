"""The Scotch controller application (ties §4-§5 together).

Event flow:

* Packet-Ins from managed physical switches or from overlay vSwitches
  (carrying tunnel metadata) become :class:`PendingFlow` entries in the
  originating switch's ingress-port queues (Fig. 7).
* The per-switch rate-R server admits flows to physical paths; the
  overlay drain routes the over-threshold excess across the vSwitch
  mesh; the dropping threshold sheds what neither can carry.
* The congestion monitor activates the overlay at a switch (modified
  default rules + select group) and later triggers withdrawal.
* The stats poller + migrator move elephants to physical paths.
* The heartbeat monitor replaces failed vSwitches with backups.

The Fig. 7 state, scheduler wiring and first-hop-last install are the
shared :class:`~repro.core.flow_manager.RateLimitedReactiveApp` core
(the §4 baselines run on it too); Scotch adds the overlay intake, the
TCAM/backlog pre-checks and routes the excess over the overlay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.controller.reliability import ReliableSender
from repro.controller.flow_info_db import ROUTE_DROPPED, ROUTE_OVERLAY
from repro.controller.stats_service import StatsPoller
from repro.core.config import (
    ACTIVATION_RESEND_GAP,
    ACTIVATION_RESENDS,
    FLOW_IDLE_TIMEOUT,
    MIGRATION_BACKLOG_LIMIT,
    TABLE_FULL_RATE_THRESHOLD,
    TCAM_HEADROOM_FRACTION,
    VSWITCH_FLOW_TABLE,
    ScotchConfig,
)
from repro.core.failover import HeartbeatMonitor
from repro.core.flow_manager import DROPPED, PendingFlow, RateLimitedReactiveApp
from repro.core.migration import OVERLAY_COOKIE, ElephantMigrator
from repro.core.monitor import CongestionMonitor
from repro.obs import path as obs_path
from repro.core.overlay import OverlayError, ScotchOverlay
from repro.core.policy import PolicyRegistry
from repro.core.withdrawal import WithdrawalManager
from repro.sim.process import PeriodicTimer
from repro.switch.group_table import flow_bucket
from repro.telemetry.service import SamplingStatsService

if TYPE_CHECKING:  # pragma: no cover
    from repro.openflow.messages import EchoReply, FlowStatsReply, PacketIn


class ScotchApp(RateLimitedReactiveApp):
    """Scotch overlay management as a controller application."""

    def __init__(
        self,
        overlay: ScotchOverlay,
        config: Optional[ScotchConfig] = None,
        policy: Optional[PolicyRegistry] = None,
    ):
        super().__init__(config or overlay.config)
        self.overlay = overlay
        self._policy = policy
        # Populated in start().
        self.monitor: Optional[CongestionMonitor] = None
        self.migrator: Optional[ElephantMigrator] = None
        self.withdrawal: Optional[WithdrawalManager] = None
        self.heartbeat: Optional[HeartbeatMonitor] = None
        #: The flow-measurement service (mode ``config.stats_mode``);
        #: ``stats_poller`` stays the underlying StatsPoller in
        #: poll/hybrid modes (None in sample/off modes).
        self.stats_service: Optional[SamplingStatsService] = None
        self.stats_poller: Optional[StatsPoller] = None
        self.reliable: Optional[ReliableSender] = None
        self.groups_installed: Set[str] = set()
        # Counters.
        self.unattributed_packet_ins = 0
        self.activations = 0
        self.flows_retired = 0
        self.resyncs = 0
        #: Per-switch deque of predicted rule-expiry times — the
        #: controller's own install history, used to estimate flow-table
        #: occupancy (§3.3 TCAM mitigation) without probing by failure.
        self._tcam_expiries: Dict[str, object] = {}
        #: Per-switch static rule baseline (offline config + activation).
        self._tcam_static: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        if self._policy is None:
            self._policy = PolicyRegistry(self.network, self.overlay)
        self.policy = self._policy
        self.monitor = CongestionMonitor(
            self.sim,
            self._on_congested,
            self._on_cleared,
            pressure_check=self._tcam_pressure,
        )
        for switch_name in self.overlay.assignment:
            self._add_managed_switch(switch_name)
        self.migrator = ElephantMigrator(
            self.sim,
            self.controller,
            self.router,
            self.policy,
            self.flow_db,
            self.schedulers,
            self.installer,
            self.config,
        )
        self.withdrawal = WithdrawalManager(
            self.sim, self.overlay, self.flow_db, self.schedulers
        )
        self.reliable = ReliableSender(self.sim, self.controller, self.config)
        self.heartbeat = HeartbeatMonitor(
            self.sim, self.controller, self.overlay, self.config,
            self.groups_installed, reliable=self.reliable,
        )
        self.stats_service = SamplingStatsService(
            self.controller,
            self.network,
            targets=lambda: [v for v in self.overlay.mesh if v not in self.overlay.dead],
            config=self.config,
        )
        self.stats_poller = self.stats_service.poller
        self.monitor.start()
        self.heartbeat.start()
        self.stats_service.start()
        self._prune_timer = PeriodicTimer(self.sim, self._DB_PRUNE_INTERVAL,
                                          self._prune_flow_db)
        self._prune_timer.start()

    #: How often dropped-flow records are purged from the Flow Info
    #: Database (live flows are retired by FlowRemoved instead).
    _DB_PRUNE_INTERVAL = 10.0

    #: Max packets held per undecided flow (the controller's buffer pool
    #: is finite, like a switch's packet buffer).
    _HELD_PACKETS_CAP = 20

    def _flush_held(self, info) -> None:
        """Send the packets buffered during the decision wait along the
        just-chosen path."""
        if info.reinject is None or not info.held_packets:
            info.held_packets.clear()
            return
        dpid, actions = info.reinject
        for packet in info.held_packets:
            # Mark them: these delivered-late packets are setup-phase
            # traffic, not established-flow samples (Fig. 14 filters).
            packet.metadata["reinjected"] = True
            self.controller.packet_out(dpid, packet, list(actions))
        info.held_packets.clear()

    def _prune_flow_db(self) -> None:
        horizon = self.sim.now - 2 * FLOW_IDLE_TIMEOUT
        stale = [
            info.key
            for info in self.flow_db._flows.values()
            if info.route == ROUTE_DROPPED and info.first_seen < horizon
        ]
        for key in stale:
            self.flow_db.forget(key)
        self._prune_timer.rearm()

    def _add_managed_switch(self, switch_name: str) -> None:
        switch = self.network[switch_name]
        # Static baseline of the main table (offline tunnel/delivery
        # rules the controller configured) plus room for the activation
        # rule set — counted against TCAM capacity alongside the dynamic
        # per-flow installs.
        self._tcam_static[switch_name] = (
            len(switch.datapath.table(0)) + len(switch.ports) + 2
        )
        self._add_scheduler(switch_name)
        self.monitor.watch(switch_name, switch.profile)

    # ------------------------------------------------------------------
    # Packet-In intake
    # ------------------------------------------------------------------
    def packet_in(self, dpid: str, message: "PacketIn") -> None:
        packet = message.packet
        if packet is None:
            return
        attribution = self.overlay.attribute_packet_in(dpid, message)
        if attribution is not None:
            origin, ingress_port = attribution
            if self._obs.tracer.enabled:
                obs_path.attribute(self._obs, packet, origin, ingress_port)
            if self._obs.metrics.enabled:
                self._obs.metrics.counter(f"overlay.relay.{dpid}").inc()
            self._intake(origin, ingress_port, packet, entry_vswitch=dpid)
        elif dpid in self.schedulers:
            self._intake(dpid, message.in_port, packet, entry_vswitch=None)
        elif dpid in self.controller.datapaths and dpid in self.network:
            # A switch outside the managed set — typically a host vSwitch
            # seeing a host-originated (e.g. reverse/ACK) flow, or a mesh
            # vSwitch transient.  Give it a scheduler lazily and handle
            # the flow like any other; duplicates of known flows get
            # re-injected along their existing path.
            self.unattributed_packet_ins += 1
            self._add_managed_switch(dpid)
            self._intake(dpid, message.in_port, packet, entry_vswitch=None)
        else:
            self.unattributed_packet_ins += 1

    def _intake(self, first_hop: str, ingress_port: int, packet, entry_vswitch: Optional[str]) -> None:
        # The monitor counts Packet-In *messages* (§4.2), so duplicates —
        # later packets of a flow whose rules are not in yet — count too:
        # they are control-path load exactly like first packets.
        self.monitor.observe_new_flow(first_hop)
        key = packet.flow_key
        info = self.flow_db.get(key)
        if info is not None:
            # A later packet of a known flow, punted while its rules are
            # still settling: re-inject it along the flow's chosen path
            # (what any reactive controller's Packet-Out does), or hold
            # it at the controller (the buffer_id role) until the
            # routing decision exists.  Setup races must not cost packets.
            self.duplicate_packet_ins += 1
            if info.reinject is not None:
                dpid, actions = info.reinject
                packet.metadata["reinjected"] = True
                self.controller.packet_out(dpid, packet, list(actions))
            elif len(info.held_packets) < self._HELD_PACKETS_CAP:
                info.held_packets.append(packet)
            return
        info = self.flow_db.record(
            key, first_hop, ingress_port, self.sim.now, entry_vswitch=entry_vswitch
        )
        info.middlebox_chain = self.policy.chain_for(key)
        pending = PendingFlow(
            key=key,
            first_hop=first_hop,
            ingress_port=ingress_port,
            packet=packet,
            entry_vswitch=entry_vswitch,
        )
        # The decision comes out of the Fig. 7 queues at a later event;
        # keep the control-path trace open until then.
        if self._obs.tracer.enabled:
            obs_path.defer(packet)
        if self.schedulers[first_hop].submit_new_flow(pending) == DROPPED:
            self._drop(pending)

    # ------------------------------------------------------------------
    # Admission to the physical network (rate-R service)
    # ------------------------------------------------------------------
    def _admit_physical(self, pending: PendingFlow) -> None:
        key = pending.key
        info = self.flow_db.get(key)
        host = self.router.host_for(key.dst_ip)
        if host is None:
            self._drop(pending, unroutable=True)
            return
        try:
            path = self.policy.physical_path(pending.first_hop, host.name, info.middlebox_chain)
        except Exception:
            self._drop(pending, unroutable=True)
            return
        # §3.3 TCAM bottleneck: never install onto a switch whose table
        # is (predicted or observed) full — route the flow over the
        # overlay instead, where it needs no per-flow physical state.
        # Prediction uses the controller's own install history + rule
        # timeouts; the TABLE_FULL error rate is the backstop for
        # anything the estimate misses.
        tcam_floor = TABLE_FULL_RATE_THRESHOLD / 2
        saturated = any(
            node in self.schedulers
            and (
                self.monitor.table_full_rate(node) >= tcam_floor
                or self._tcam_saturated(node)
            )
            for node in path
        )
        if saturated:
            self.monitor.force_congested(pending.first_hop)
            self._route_overlay(pending)
            return
        # §5.3's control-plane check, applied to admissions: when any
        # switch on the path already has a deep install backlog, adding
        # this flow's rules would stretch every queued install further —
        # route it over the overlay instead (possible whenever the
        # first hop's defaults are active, i.e. its packets reach the
        # overlay data path).
        if pending.first_hop in self.overlay.active and any(
            node in self.schedulers
            and self.schedulers[node].backlog() > MIGRATION_BACKLOG_LIMIT
            for node in path
        ):
            self._route_overlay(pending)
            return
        rules = self.router.rules_for_path(path, key)
        for rule in rules:
            self._note_install(rule.dpid)

        def live(dpid: str, actions: list) -> None:
            flow_info = self.flow_db.get(key)
            if flow_info is not None:
                flow_info.reinject = (dpid, actions)
                self._flush_held(flow_info)

        self._install_physical(pending, rules, on_live=live)

    # ------------------------------------------------------------------
    # Overlay routing (over-threshold drain)
    # ------------------------------------------------------------------
    def _route_overlay(self, pending: PendingFlow) -> None:
        key = pending.key
        info = self.flow_db.get(key)
        host = self.router.host_for(key.dst_ip)
        if host is None:
            self._drop(pending, unroutable=True)
            return
        entry = pending.entry_vswitch
        if entry is None or entry in self.overlay.dead:
            entry = self._hash_entry_vswitch(pending.first_hop, key)
            if entry is None:
                self._drop(pending)
                return
        try:
            rules = self.policy.overlay_route(key, entry, host.name, info.middlebox_chain)
        except Exception:
            self._drop(pending, unroutable=True)
            return
        # vSwitch installs are cheap: send directly, last hop first.
        for rule in rules:
            self.controller.flow_mod(
                rule.dpid,
                rule.match,
                rule.priority,
                rule.actions,
                table_id=VSWITCH_FLOW_TABLE,
                idle_timeout=FLOW_IDLE_TIMEOUT,
                cookie=OVERLAY_COOKIE,
            )
            info.overlay_sites.append((rule.dpid, rule.match, rule.priority))
        # Forward the buffered first packet from the entry vSwitch.
        entry_rule = rules[-1]
        if pending.packet is not None:
            self.controller.packet_out(entry_rule.dpid, pending.packet, list(entry_rule.actions))
        info.entry_vswitch = entry
        info.reinject = (entry_rule.dpid, list(entry_rule.actions))
        self._flush_held(info)
        self.flow_db.set_route(key, ROUTE_OVERLAY)
        self._decision(pending, "overlay")

    _handle_excess = _route_overlay

    # ------------------------------------------------------------------
    # TCAM occupancy prediction (§3.3 mitigation)
    # ------------------------------------------------------------------
    def _note_install(self, dpid: str) -> None:
        """Record one per-flow rule headed for ``dpid`` (it will occupy
        the table for roughly the idle timeout)."""
        from collections import deque

        expiries = self._tcam_expiries.get(dpid)
        if expiries is None:
            expiries = self._tcam_expiries[dpid] = deque()
        expiries.append(self.sim.now + FLOW_IDLE_TIMEOUT)

    def estimated_occupancy(self, dpid: str) -> int:
        """Rules the controller believes are resident at ``dpid``."""
        expiries = self._tcam_expiries.get(dpid)
        if not expiries:
            return 0
        now = self.sim.now
        while expiries and expiries[0] <= now:
            expiries.popleft()
        return len(expiries)

    def _tcam_saturated(self, dpid: str) -> bool:
        capacity = self.network[dpid].profile.tcam_capacity
        if capacity is None:
            return False
        resident = self.estimated_occupancy(dpid) + self._tcam_static.get(dpid, 0)
        return resident >= TCAM_HEADROOM_FRACTION * capacity

    def _tcam_pressure(self, dpid: str) -> bool:
        """Would withdrawing re-saturate the table?  True while the
        observed new-flow rate times the rule lifetime exceeds the
        switch's usable capacity — while mitigated, saturation itself is
        invisible (flows ride the overlay), so pressure must be
        predicted from offered load."""
        capacity = self.network[dpid].profile.tcam_capacity
        if capacity is None:
            return False
        usable = TCAM_HEADROOM_FRACTION * capacity - self._tcam_static.get(dpid, 0)
        return self.monitor.rate(dpid) * FLOW_IDLE_TIMEOUT >= usable

    def _hash_entry_vswitch(self, switch_name: str, key) -> Optional[str]:
        """The vSwitch the switch's select group will hash this flow to —
        computed with the same flow hash the group table uses, so the
        controller's rules land where the data plane sends the packets."""
        serving = self.overlay.live_assignment(switch_name)
        if not serving:
            return None
        return serving[flow_bucket(key, len(serving))]

    # ------------------------------------------------------------------
    # Activation / withdrawal
    # ------------------------------------------------------------------
    def _on_congested(self, dpid: str) -> None:
        if dpid not in self.overlay.assignment:
            # A lazily-managed switch (e.g. a host vSwitch) has no
            # overlay tunnels to activate; its own agent capacity is all
            # there is.  (vSwitch agents are the overlay's capacity pool
            # — congestion there means the pool itself is the limit.)
            return
        self.activations += 1
        self.overlay.active.add(dpid)
        self.groups_installed.add(dpid)
        self.schedulers[dpid].set_overlay_enabled(True)
        self._send_activation(dpid, resends=ACTIVATION_RESENDS)

    def _send_activation(self, dpid: str, resends: int) -> None:
        if dpid not in self.overlay.active:
            return  # withdrawn in the meantime
        try:
            group, mods = self.overlay.activation_messages(dpid)
        except OverlayError:
            # Every candidate vSwitch is (believed) dead — e.g. a resync
            # racing the first post-outage echo round.  Degrade: keep the
            # switch's existing rules; the recovery-driven group refresh
            # re-establishes state once echoes resume.
            return
        # Barrier-acked, keyed: a re-send (or a failover-era refresh)
        # supersedes a still-retrying older batch, so the switch
        # converges on the newest rule set under channel faults.
        self.reliable.send(dpid, [group] + mods, key=("activation", dpid))
        if resends > 0:
            self.sim.schedule(
                ACTIVATION_RESEND_GAP, self._send_activation, dpid, resends - 1
            )

    def _on_cleared(self, dpid: str) -> None:
        self.withdrawal.withdraw(dpid)

    # ------------------------------------------------------------------
    # Other controller events
    # ------------------------------------------------------------------
    def stats_reply(self, dpid: str, message: "FlowStatsReply") -> None:
        self.migrator.handle_stats(dpid, message)

    def sample_report(self, dpid: str, message) -> None:
        if self.stats_service is not None:
            self.stats_service.handle_sample_report(dpid, message)

    def error(self, dpid: str, message) -> None:
        if message.code == "table_full" and dpid in self.schedulers:
            self.monitor.observe_table_full(dpid)

    def flow_removed(self, dpid: str, message) -> None:
        """Retire Flow Info Database state when the flow's defining rule
        idles out: the entry-vSwitch rule for overlay flows, the
        first-hop rule (or withdrawal pin) for physical ones.  Keeps
        controller state bounded over long runs and lets a returning
        five-tuple be handled as a genuinely new flow."""
        match = message.match
        if match is None or not match.has_five_tuple:
            return
        from repro.net.flow import FlowKey

        key = FlowKey(*match.five_tuple_key())
        info = self.flow_db.get(key)
        if info is None:
            return
        if dpid == info.first_hop_switch or dpid == info.entry_vswitch:
            self.flow_db.forget(key)
            self.flows_retired += 1

    def echo_reply(self, dpid: str, message: "EchoReply") -> None:
        self.heartbeat.echo_reply(dpid, message)

    def barrier_reply(self, dpid: str, message) -> None:
        self.reliable.barrier_reply(dpid, message)

    # ------------------------------------------------------------------
    # Self-healing (docs/robustness.md)
    # ------------------------------------------------------------------
    def resync(self) -> None:
        """Re-establish controller-owned switch state after an outage —
        what a standby controller does on takeover (its replicated view
        of the overlay is this process's own state).  Restarts liveness
        tracking from a clean slate (stale miss counts from echoes the
        standby never sent must not declare vSwitches dead) and re-pushes
        the idempotent overlay rule sets."""
        self.resyncs += 1
        tracer = self._obs.tracer
        if tracer.enabled:
            tracer.instant("controller.resync", track="failover")
        if self.heartbeat is not None:
            self.heartbeat.stop()
            self.heartbeat.start()
        # A pre-outage batch still retrying (e.g. a failover GroupMod
        # whose barrier ack never came back) must not land *after* the
        # fresh pushes below and resurrect a stale bucket set.  The
        # re-pushes re-claim every key that matters with current state,
        # so cancel the whole in-flight keyed set first.
        self.reliable.supersede_all()
        for dpid in sorted(self.groups_installed):
            if dpid not in self.controller.datapaths:
                continue
            if dpid in self.overlay.active:
                self._send_activation(dpid, resends=0)
            else:
                # Withdrawn switches keep their group (see overlay
                # withdrawal_messages); refresh its buckets in case the
                # bucket set moved while the controller was dark.
                self.heartbeat._refresh_groups([dpid])
