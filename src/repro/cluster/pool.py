"""Elastic controller pool: leader election, roles, autoscaling, EASM.

Scotch removes the *data-plane* scaling bottleneck; this module goes
beyond the paper (docs/cluster.md) and removes the control-plane one:
a pool of controller members shares the switches, with OpenFlow
master/slave role semantics per switch, so Packet-In load spreads and
a member crash only orphans its own switches — briefly.

Architecture.  Switches keep their single control channel; the
:class:`ControllerPool` is a controller app acting as the shared
frontend that demultiplexes each switch's messages to its current
*master* member.  Members are logical controller processes: each runs
its own lease/election state machine over the :class:`~repro.cluster.
bus.PoolBus` and owns a :class:`~repro.controller.reliability.
ReliableSender` for the state it installs.

* **Leader election** — deterministic sim-time lease: the leader
  broadcasts a beat every ``pool_lease_interval``; a member hearing
  nothing for ``pool_lease_timeout`` claims candidacy with ``term+1``;
  higher term wins, equal term goes to the lowest member id; a
  candidate unchallenged for ``pool_election_timeout`` takes over.
* **Role handoff** — the leader assigns a switch to a member by having
  the *new* master send a barrier-acked ``RoleMod`` fenced by a
  monotonically increasing generation (key ``("role", dpid)``).  The
  pool's authoritative ``acked_master`` map flips only at ack time;
  Packet-Ins arriving in between are buffered and drained to the new
  master, so nothing is lost and nothing is handled twice.
* **Autoscaling** — the leader feeds the pool-wide Packet-In rate
  through :mod:`repro.obs.rules` hysteresis (scale-up above the
  high-water mark held ``pool_scale_up_hold``; scale-down below the
  low-water mark held ``pool_scale_cooldown``), with a
  ``pool_warmup`` guard between actions.
* **Rebalancing** — EASM-style best-fit: when the busiest member
  carries more than ``POOL_IMBALANCE_RATIO`` times the idlest one,
  migrate the switch whose load best levels the two.

Everything the pool does lands in :attr:`events` with stable key
order; :meth:`events_jsonl` is the byte-comparison unit the CI pool
job diffs across seeds.  A deployment that never builds a pool
(``config.controllers == 1``, the default) executes none of this
module's code.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import json

from repro.cluster.bus import PoolBus
from repro.controller.base_app import BaseApp
from repro.controller.reliability import ReliableSender
from repro.core.config import POOL_IMBALANCE_RATIO, PRIORITY_PHYSICAL_FLOW, ScotchConfig
from repro.obs.metrics import LATENCY_BUCKETS_S
from repro.obs.rules import AlertRule, AlertState
from repro.openflow.messages import FlowMod, RoleMod
from repro.sim.process import PeriodicTimer
from repro.switch.actions import Output
from repro.switch.match import Match

#: Failover-window buckets: lease expiry + election + handoff lives in
#: the 0.1 s .. 10 s decades, same shape as the control-path buckets.
_WINDOW_BUCKETS = LATENCY_BUCKETS_S

#: Per-dpid Packet-Ins buffered while a switch has no live acked
#: master; beyond this that switch's oldest are dropped (and counted).
ORPHAN_BUFFER_LIMIT = 4096


def pool_grace(config: "ScotchConfig") -> float:
    """How long a switch may be without a live master: lease expiry +
    election + one reliable handoff round-trip budget."""
    from repro.faults.invariants import grace_window

    return (config.pool_lease_timeout + config.pool_election_timeout
            + grace_window(config))


class PoolMember:
    """One logical controller process in the pool."""

    def __init__(self, pool: "ControllerPool", member_id: str):
        self.pool = pool
        self.id = member_id
        self.sim = pool.sim
        self.config = pool.config
        self.alive = True
        #: True while a scale-down is migrating this member's switches
        #: away; finalised (alive=False) once it masters nothing.
        self.draining = False
        # -- election state --------------------------------------------
        self.term = 1
        self.leader_id: Optional[str] = None
        self.last_leader_beat = self.sim.now
        self.candidate_since: Optional[float] = None
        #: member id -> when its last alive-beat arrived.
        self.last_seen: Dict[str, float] = {}
        #: dpid -> (master_id, generation): this member's view of the
        #: leader's assignments (updated by bus ``assign`` broadcasts).
        self.assignment_view: Dict[str, Tuple[str, int]] = {}
        # -- work ------------------------------------------------------
        self.packet_ins_handled = 0
        self.reliable = ReliableSender(self.sim, pool.controller, pool.config)
        self._timer = PeriodicTimer(self.sim, self.config.pool_lease_interval,
                                    self._tick)
        self._rebalance_timer = PeriodicTimer(
            self.sim, self.config.pool_rebalance_interval, self._rebalance_tick)
        # -- autoscaling (leader-only) ---------------------------------
        self._scale_up = AlertState(pool.scale_up_rule)
        self._scale_down = AlertState(pool.scale_down_rule)
        self.last_scale_at: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.alive and self.leader_id == self.id

    def start(self) -> None:
        self.pool.bus.attach(self.id, self._on_bus)
        self._timer.start()
        if self.is_leader:
            self._rebalance_timer.start()

    def halt(self) -> None:
        """Crash/retire: stop timers, freeze in-flight installs."""
        self.alive = False
        self._timer.stop()
        self._rebalance_timer.stop()
        self.reliable.stop()
        self.pool.bus.detach(self.id)

    def resume(self) -> None:
        """Restart after a crash: rejoin as a follower and let the next
        leader beat (or a fresh election) reorient this member."""
        self.alive = True
        self.draining = False
        self.candidate_since = None
        self.leader_id = None
        self.last_leader_beat = self.sim.now
        # A crash loses in-memory state: the pre-crash assignment view
        # would otherwise claim mastership of switches the pool already
        # reassigned (a multi-master belief).  Rebuilt from "assign"
        # broadcasts as the leader hands work back.
        self.assignment_view.clear()
        self.last_seen.clear()
        self.pool.bus.attach(self.id, self._on_bus)
        self._timer.start()
        self.reliable.start()

    # ------------------------------------------------------------------
    # Election state machine (one tick per lease interval)
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self._timer.running or not self.alive:
            return
        now = self.sim.now
        self.pool.bus.broadcast(self.id, ("alive",))
        if self.is_leader:
            self.pool.bus.broadcast(self.id, ("beat", self.term, self.id))
            self._leader_duties(now)
        elif self.candidate_since is not None:
            if now - self.candidate_since >= self.config.pool_election_timeout:
                self._win(now)
        elif now - self.last_leader_beat > self.config.pool_lease_timeout:
            self.term += 1
            self.candidate_since = now
            self.pool.bus.broadcast(self.id, ("claim", self.term, self.id))
            self.pool.log_event("election-claim", member=self.id, term=self.term)
        self._timer.rearm()

    def _win(self, now: float) -> None:
        self.candidate_since = None
        self.leader_id = self.id
        self.pool.log_event("leader-elected", leader=self.id, term=self.term)
        self.pool.bus.broadcast(self.id, ("beat", self.term, self.id))
        self._rebalance_timer.start()
        # Fresh hysteresis: the new leader must observe, not inherit.
        self._scale_up = AlertState(self.pool.scale_up_rule)
        self._scale_down = AlertState(self.pool.scale_down_rule)
        self._reassign_orphans(now)

    def _on_bus(self, src: str, payload: Tuple[object, ...]) -> None:
        kind = payload[0]
        now = self.sim.now
        if kind == "alive":
            self.last_seen[src] = now
        elif kind == "beat":
            term, leader = int(payload[1]), str(payload[2])
            if term >= self.term:
                if self.is_leader and leader != self.id:
                    # Deposed (or conceding an equal-term tie to the
                    # other leader): drop leader duties immediately.
                    self._rebalance_timer.stop()
                self.term = term
                self.leader_id = leader
                self.last_leader_beat = now
                self.candidate_since = None
        elif kind == "claim":
            term, candidate = int(payload[1]), str(payload[2])
            if term < self.term:
                return
            if term > self.term or candidate < self.id:
                # Higher precedence than any claim this member could
                # make: adopt the term, yield, and give the candidate a
                # full lease before considering a counter-claim.
                if self.is_leader:
                    self._rebalance_timer.stop()
                    self.leader_id = None
                self.term = term
                self.candidate_since = None
                self.last_leader_beat = now
        elif kind == "assign":
            dpid, master_id, generation = (str(payload[1]), str(payload[2]),
                                           int(payload[3]))
            current = self.assignment_view.get(dpid)
            if current is None or generation > current[1]:
                self.assignment_view[dpid] = (master_id, generation)

    # ------------------------------------------------------------------
    # Leader duties
    # ------------------------------------------------------------------
    def _leader_duties(self, now: float) -> None:
        self._reassign_orphans(now)
        self._finalize_draining()
        self._autoscale(now)

    def _member_live(self, member_id: str, now: float) -> bool:
        """Lease-based liveness: a peer is live while its alive-beats
        keep arriving.  Deliberately does NOT consult the peer's
        ``alive`` flag — death is only observable through the bus, so
        the failover window is genuinely bounded by the lease, not by
        shared-memory omniscience."""
        member = self.pool.members.get(member_id)
        if member is None or member.draining:
            return False
        if member_id == self.id:
            return self.alive
        seen = self.last_seen.get(member_id)
        if seen is None:
            # Never heard from it yet (pool start / just spawned): give
            # it a full lease from our own start before declaring death.
            return now - self.last_leader_beat <= self.config.pool_lease_timeout
        return now - seen <= self.config.pool_lease_timeout

    def _live_targets(self, now: float) -> List[str]:
        return [m for m in sorted(self.pool.members)
                if self._member_live(m, now)]

    def _least_loaded(self, candidates: List[str]) -> Optional[str]:
        if not candidates:
            return None
        # Count in-flight handoff targets as already loaded, so a burst
        # of assignments (pool start, mass failover) spreads instead of
        # dog-piling whoever acked last.
        loads = self.pool.member_switch_counts()
        for dpid, (target, _gen, _t, _r) in self.pool.handoff_inflight.items():
            current = self.pool.acked_master.get(dpid)
            if current != target:
                loads[target] = loads.get(target, 0) + 1
                if current is not None:
                    loads[current] = loads.get(current, 0) - 1
        return min(candidates, key=lambda m: (loads.get(m, 0), m))

    def _reassign_orphans(self, now: float) -> None:
        """Give every switch whose master is dead (or unassigned) a new
        live master — the failover path."""
        targets = self._live_targets(now)
        if not targets:
            return
        for dpid in sorted(self.pool.switch_ids):
            master = self.pool.acked_master.get(dpid)
            if master is not None and self._member_live(master, now):
                continue
            inflight = self.pool.handoff_inflight.get(dpid)
            if inflight is not None and self._member_live(inflight[0], now):
                continue  # handoff already racing the orphan window
            target = self._least_loaded(targets)
            self.pool.initiate_handoff(dpid, target,
                                       reason="failover" if master else "assign")

    def _finalize_draining(self) -> None:
        counts = self.pool.member_switch_counts()
        for member_id in sorted(self.pool.members):
            member = self.pool.members[member_id]
            if not (member.alive and member.draining):
                continue
            inflight_to = any(m == member_id for m, _g, _t, _r
                              in self.pool.handoff_inflight.values())
            if counts.get(member_id, 0) == 0 and not inflight_to:
                member.halt()
                self.pool.live_gauge_update()
                self.pool.log_event("member-retired", member=member_id)

    # -- autoscaling ----------------------------------------------------
    def _reset_autoscale(self) -> None:
        """Fresh hysteresis after a scale action.  The pool has
        demonstrably been active by now, so the ``<``-rule's
        arm-on-activity guard is satisfied up front — successive
        retire steps can follow one cooldown after another even when
        traffic has already collapsed below the clear level."""
        self._scale_up = AlertState(self.pool.scale_up_rule)
        self._scale_down = AlertState(self.pool.scale_down_rule)
        self._scale_down.armed = True

    def _autoscale(self, now: float) -> None:
        pps = self.pool.take_pps_window(now)
        self._scale_up.evaluate(now, pps)
        self._scale_down.evaluate(now, pps)
        warm = (self.last_scale_at is None
                or now - self.last_scale_at >= self.config.pool_warmup)
        if not warm:
            return  # still warming up from the last action; keep observing
        live = self.pool.live_member_count()
        if self._scale_up.firing and live < self.config.pool_max_controllers:
            self._scale_up_action(now, pps)
        elif self._scale_down.firing and live > self.config.pool_min_controllers:
            self._scale_down_action(now, pps)

    def _scale_up_action(self, now: float, pps: float) -> None:
        member = self.pool.spawn_member()
        member.leader_id = self.id
        # The spawner vouches for its child until beats arrive.
        self.last_seen[member.id] = now
        self.last_scale_at = now
        self._reset_autoscale()
        self.pool.log_event("scale-up", member=member.id, pps=round(pps, 3))

    def _scale_down_action(self, now: float, pps: float) -> None:
        counts = self.pool.member_switch_counts()
        candidates = [m for m in self._live_targets(now) if m != self.id]
        if not candidates:
            return
        # Retire the emptiest member; newest id breaks ties so the
        # steady-state pool keeps its oldest members.
        victim_id = min(candidates,
                        key=lambda m: (counts.get(m, 0), _id_sort_key(m)))
        victim = self.pool.members[victim_id]
        victim.draining = True
        self.last_scale_at = now
        self._reset_autoscale()
        self.pool.log_event("scale-down", member=victim_id, pps=round(pps, 3))
        targets = [m for m in self._live_targets(now) if m != victim_id]
        for dpid in sorted(self.pool.switch_ids):
            if self.pool.acked_master.get(dpid) == victim_id:
                target = self._least_loaded(targets)
                if target is not None:
                    self.pool.initiate_handoff(dpid, target, reason="scale-down")

    # -- EASM rebalancing ------------------------------------------------
    def _rebalance_tick(self) -> None:
        if not self._rebalance_timer.running or not self.is_leader:
            return
        now = self.sim.now
        loads = self.pool.take_load_window()
        live = self._live_targets(now)
        if len(live) >= 2:
            per_member: Dict[str, float] = {m: 0.0 for m in live}
            per_dpid: Dict[str, Dict[str, float]] = {m: {} for m in live}
            for dpid, count in loads.items():
                master = self.pool.acked_master.get(dpid)
                if master in per_member:
                    per_member[master] += count
                    per_dpid[master][dpid] = count
            busiest = max(live, key=lambda m: (per_member[m], m))
            idlest = min(live, key=lambda m: (per_member[m], m))
            hi, lo = per_member[busiest], per_member[idlest]
            imbalanced = (hi > lo * POOL_IMBALANCE_RATIO
                          if lo > 0 else hi > 0)
            if imbalanced and len(per_dpid[busiest]) > 1:
                # Best fit: the switch whose load is closest to half the
                # gap levels the pair without overshooting.
                gap = (hi - lo) / 2.0
                dpid = min(sorted(per_dpid[busiest]),
                           key=lambda d: (abs(per_dpid[busiest][d] - gap), d))
                self.pool.log_event("rebalance-move", dpid=dpid,
                                    src=busiest, dst=idlest,
                                    hi=round(hi, 3), lo=round(lo, 3))
                self.pool.initiate_handoff(dpid, idlest, reason="rebalance")
        self._rebalance_timer.rearm()

    # ------------------------------------------------------------------
    # Packet-In work (master role)
    # ------------------------------------------------------------------
    def handle_packet_in(self, dpid: str, message) -> None:
        self.packet_ins_handled += 1
        packet = message.packet
        if packet is None:
            return
        key = (dpid, packet.flow_key)
        owner = self.pool.flow_owner.get(key)
        if owner == self.id:
            return  # setup already in flight / installed by this member
        if owner is not None:
            other = self.pool.members.get(owner)
            if other is not None and other.alive:
                # The flow's rule is already owned by a live member
                # (e.g. the switch just migrated here mid-flow): do NOT
                # install again — that would be a double-handled setup.
                return
            self.pool.flow_reclaims += 1
        self.pool.flow_owner[key] = self.id
        self._install_flow(dpid, packet.flow_key)

    def _install_flow(self, dpid: str, flow_key) -> None:
        owner = self.pool.flow_owner.get((dpid, flow_key))
        if owner is not None and owner != self.id:
            other = self.pool.members.get(owner)
            if other is not None and other.alive:
                # Tripwire: installing over a live owner's rule would be
                # a double-handled setup (invariant: stays zero).
                self.pool.double_installs += 1
                return
        mod = FlowMod(match=Match.for_flow(flow_key),
                      priority=PRIORITY_PHYSICAL_FLOW, actions=[Output(1)],
                      command="add", notify_removal=False)
        self.reliable.send(dpid, [mod], key=("flow", dpid, flow_key))

    def reclaim_dead_flows(self, dpid: str) -> int:
        """On taking mastership of ``dpid``: re-own and re-install every
        flow a dead member claimed but may never have landed (the
        zero-lost-flow-setups guarantee for single-packet flows)."""
        reclaimed = 0
        for key in sorted(k for k in self.pool.flow_owner if k[0] == dpid):
            owner = self.pool.flow_owner[key]
            member = self.pool.members.get(owner)
            if member is not None and (member.alive or owner == self.id):
                continue
            self.pool.flow_owner[key] = self.id
            self.pool.flow_reclaims += 1
            reclaimed += 1
            self._install_flow(dpid, key[1])
        return reclaimed


def _id_sort_key(member_id: str) -> Tuple[int, str]:
    """Sort ``c10`` after ``c2``: numeric suffix first, then lexical."""
    digits = "".join(ch for ch in member_id if ch.isdigit())
    return (-int(digits) if digits else 0, member_id)


class ControllerPool(BaseApp):
    """The pool frontend: demux, role authority, shared truth, log."""

    def __init__(self, config: "ScotchConfig"):
        super().__init__(name="ControllerPool")
        self.config = config
        self._next_index = 0
        self.members: Dict[str, PoolMember] = {}
        self.bus: Optional[PoolBus] = None
        #: dpids the pool is responsible for (registration order-free).
        self.switch_ids: List[str] = []
        # -- authoritative role state ----------------------------------
        #: dpid -> member id whose RoleMod the switch has barrier-acked.
        self.acked_master: Dict[str, str] = {}
        #: dpid -> highest generation ever issued (fencing allocator).
        self.generation: Dict[str, int] = {}
        #: dpid -> (target member, generation, decided_at, reason).
        self.handoff_inflight: Dict[str, Tuple[str, int, float, str]] = {}
        # -- orphan accounting -----------------------------------------
        self.orphan_since: Dict[str, float] = {}
        self.crash_time: Dict[str, float] = {}
        #: dpid -> the Packet-Ins it punted while orphaned, oldest first.
        self._orphan_buffer: Dict[str, Deque[object]] = {}
        self.orphaned = 0
        self.orphan_dropped = 0
        self.drained = 0
        #: Role handoffs the target switch barrier-acked.
        self.handoffs = 0
        # -- flow exactly-once bookkeeping ------------------------------
        #: (dpid, flow key) -> member id owning the flow's setup.
        self.flow_owner: Dict[Tuple[str, object], str] = {}
        self.flow_reclaims = 0
        self.double_installs = 0
        self.stale_role_errors = 0
        # -- latency records (plain lists so benches/reports can compute
        # exact percentiles even when the metrics registry is off) ------
        #: member-crash -> new-master-acked, seconds, one per failover.
        self.failover_windows: List[float] = []
        #: handoff-decided -> acked, seconds, per planned migration.
        self.migration_latencies: List[float] = []
        # -- load windows ----------------------------------------------
        self.packet_ins_total = 0
        self._window_counts: Dict[str, int] = {}
        self._pps_count = 0
        self._pps_since: Optional[float] = None
        # -- events ----------------------------------------------------
        self.events: List[Dict[str, object]] = []
        self.scale_up_rule = AlertRule(
            name="pool-scale-up", sli="pool.pps", op=">",
            threshold=config.pool_scale_up_pps,
            for_s=config.pool_scale_up_hold, detects=("flash_crowd",))
        self.scale_down_rule = AlertRule(
            name="pool-scale-down", sli="pool.pps", op="<",
            threshold=config.pool_scale_down_pps,
            for_s=config.pool_scale_cooldown)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def start(self) -> None:
        sim = self.sim
        self.bus = PoolBus(sim, self.config.pool_bus_delay)
        metrics = sim.obs.metrics
        metrics.counter("pool.packet_ins", self, "packet_ins_total")
        metrics.counter("pool.orphaned", self, "orphaned")
        metrics.counter("pool.drained", self, "drained")
        metrics.counter("pool.handoffs", self, "handoffs")
        self._g_live = metrics.gauge("pool.members_live")
        metrics.gauge("pool.orphan_buffer", lambda: float(
            sum(map(len, self._orphan_buffer.values()))))
        self._h_failover = metrics.histogram("pool.failover_window_s",
                                             _WINDOW_BUCKETS)
        self._h_migration = metrics.histogram("pool.migration_latency_s",
                                              _WINDOW_BUCKETS)
        self._pps_since = sim.now
        for _ in range(self.config.controllers):
            self._create_member()
        # Deterministic cold start: lowest id leads at term 1, no
        # election storm at t=0.
        leader = min(self.members)
        for member in self.members.values():
            member.leader_id = leader
        for member_id in sorted(self.members):
            self.members[member_id].start()
        self.live_gauge_update()
        self.log_event("pool-start", leader=leader,
                       members=sorted(self.members))

    def _create_member(self) -> PoolMember:
        member_id = f"c{self._next_index}"
        self._next_index += 1
        member = PoolMember(self, member_id)
        self.members[member_id] = member
        return member

    def manage(self, dpid: str) -> None:
        """Put ``dpid`` under pool management (the leader assigns it a
        master on its next tick)."""
        if dpid not in self.switch_ids:
            self.switch_ids.append(dpid)

    # ------------------------------------------------------------------
    # Frontend demux (BaseApp hooks)
    # ------------------------------------------------------------------
    def packet_in(self, dpid: str, message) -> None:
        self.packet_ins_total += 1
        self._pps_count += 1
        self._window_counts[dpid] = self._window_counts.get(dpid, 0) + 1
        master_id = self.acked_master.get(dpid)
        member = self.members.get(master_id) if master_id else None
        if member is not None and member.alive:
            member.handle_packet_in(dpid, message)
            return
        self.orphan_since.setdefault(dpid, self.sim.now)
        self.orphaned += 1
        buffered = self._orphan_buffer.setdefault(dpid, deque())
        if len(buffered) >= ORPHAN_BUFFER_LIMIT:
            buffered.popleft()
            self.orphan_dropped += 1
        buffered.append(message)

    def barrier_reply(self, dpid: str, message) -> None:
        for member_id in sorted(self.members):
            self.members[member_id].reliable.barrier_reply(dpid, message)

    def error(self, dpid: str, message) -> None:
        if getattr(message, "code", "") == "role_stale":
            self.stale_role_errors += 1
            self.log_event("role-stale", dpid=dpid)

    # ------------------------------------------------------------------
    # Role handoff
    # ------------------------------------------------------------------
    def initiate_handoff(self, dpid: str, target_id: str, reason: str) -> None:
        member = self.members.get(target_id)
        if member is None or not member.alive:
            return
        generation = self.generation.get(dpid, 0) + 1
        self.generation[dpid] = generation
        decided_at = self.sim.now
        self.handoff_inflight[dpid] = (target_id, generation, decided_at, reason)
        self.bus.broadcast(target_id, ("assign", dpid, target_id, generation))
        member.assignment_view[dpid] = (target_id, generation)
        self.log_event("role-assign", dpid=dpid, master=target_id,
                       generation=generation, reason=reason)
        role_mod = RoleMod(master_id=target_id, generation=generation)
        member.reliable.send(
            dpid, [role_mod], key=("role", dpid),
            on_ack=lambda d=dpid, m=target_id, g=generation:
                self._role_acked(d, m, g),
            on_abandon=lambda d=dpid, m=target_id, g=generation:
                self._role_abandoned(d, m, g),
        )

    def _role_acked(self, dpid: str, master_id: str, generation: int) -> None:
        inflight = self.handoff_inflight.get(dpid)
        if inflight is None or inflight[1] != generation:
            return  # a newer handoff superseded this one
        _target, _gen, decided_at, reason = inflight
        del self.handoff_inflight[dpid]
        now = self.sim.now
        previous = self.acked_master.get(dpid)
        self.acked_master[dpid] = master_id
        self.handoffs += 1
        if reason == "failover" and dpid in self.crash_time:
            window = now - self.crash_time.pop(dpid)
            self.failover_windows.append(window)
            self._h_failover.observe(window)
        elif reason in ("rebalance", "scale-down"):
            latency = now - decided_at
            self.migration_latencies.append(latency)
            self._h_migration.observe(latency)
        orphan_t0 = self.orphan_since.pop(dpid, None)
        self.log_event("role-acked", dpid=dpid, master=master_id,
                       generation=generation, reason=reason,
                       previous=previous or "",
                       orphaned_for=round(now - orphan_t0, 9)
                       if orphan_t0 is not None else 0.0)
        member = self.members.get(master_id)
        if member is not None and member.alive:
            if reason in ("failover", "assign"):
                member.reclaim_dead_flows(dpid)
            self._drain_orphans(dpid, member)

    def _role_abandoned(self, dpid: str, master_id: str, generation: int) -> None:
        inflight = self.handoff_inflight.get(dpid)
        if inflight is not None and inflight[1] == generation:
            del self.handoff_inflight[dpid]
        self.log_event("role-abandoned", dpid=dpid, master=master_id,
                       generation=generation)

    def _drain_orphans(self, dpid: str, member: PoolMember) -> None:
        buffered = self._orphan_buffer.pop(dpid, ())
        for message in buffered:
            member.handle_packet_in(dpid, message)
        if buffered:
            self.drained += len(buffered)
            self.log_event("orphan-drain", dpid=dpid, member=member.id,
                           count=len(buffered))

    # ------------------------------------------------------------------
    # Elasticity (chaos + autoscale entry points)
    # ------------------------------------------------------------------
    def spawn_member(self) -> PoolMember:
        member = self._create_member()
        member.last_leader_beat = self.sim.now
        member.start()
        self.live_gauge_update()
        self.log_event("member-spawn", member=member.id)
        return member

    def crash_member(self, member_id: str) -> None:
        member = self.members.get(member_id)
        if member is None or not member.alive:
            return
        member.halt()
        now = self.sim.now
        for dpid in sorted(self.switch_ids):
            if self.acked_master.get(dpid) == member_id:
                self.crash_time[dpid] = now
                self.orphan_since.setdefault(dpid, now)
        self.live_gauge_update()
        self.log_event("member-crash", member=member_id)

    def restore_member(self, member_id: str) -> None:
        member = self.members.get(member_id)
        if member is None or member.alive:
            return
        member.resume()
        self.live_gauge_update()
        self.log_event("member-restore", member=member_id)

    # ------------------------------------------------------------------
    # Shared measurement
    # ------------------------------------------------------------------
    def live_member_count(self) -> int:
        return sum(1 for m in self.members.values()
                   if m.alive and not m.draining)

    def live_gauge_update(self) -> None:
        self._g_live.set(float(self.live_member_count()))

    def member_switch_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for dpid, master in self.acked_master.items():
            counts[master] = counts.get(master, 0) + 1
        return counts

    def take_pps_window(self, now: float) -> float:
        """Pool-wide Packet-In rate since the last call (leader tick)."""
        since = self._pps_since if self._pps_since is not None else now
        span = now - since
        pps = self._pps_count / span if span > 0 else 0.0
        self._pps_count = 0
        self._pps_since = now
        return pps

    def take_load_window(self) -> Dict[str, int]:
        """Per-dpid Packet-In counts since the last rebalance tick."""
        counts = self._window_counts
        self._window_counts = {}
        return counts

    # ------------------------------------------------------------------
    # Introspection / determinism units
    # ------------------------------------------------------------------
    def log_event(self, event: str, **detail: object) -> None:
        entry: Dict[str, object] = {"t": round(self.sim.now, 9),
                                    "event": event}
        for key in sorted(detail):
            entry[key] = detail[key]
        self.events.append(entry)
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.instant(f"pool.{event}", track="pool", **{
                k: v for k, v in entry.items() if k not in ("t", "event")})

    def events_jsonl(self) -> str:
        """The pool event log as JSON lines — byte-identical for equal
        seeds (the CI pool job's determinism comparison unit)."""
        return "\n".join(json.dumps(e, sort_keys=False) for e in self.events)

    def master_beliefs(self, dpid: str) -> List[str]:
        """Live members currently believing they master ``dpid``."""
        out = []
        for member_id in sorted(self.members):
            member = self.members[member_id]
            if not member.alive:
                continue
            view = member.assignment_view.get(dpid)
            if view is not None and view[0] == member_id:
                out.append(member_id)
        return out
