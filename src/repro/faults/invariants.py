"""Control-plane invariants checked while chaos runs.

The checker encodes what "self-healing" means operationally: faults may
degrade service, but within a bounded *grace window* — the heartbeat
detection delay plus the reliable-install retry budget — the control
plane must converge back to a consistent state.  Checks:

1. **No stale group buckets.**  A physical switch's Scotch select group
   must not keep a bucket pointing at a dead vSwitch for longer than the
   grace window *when a live replacement exists*.  If every candidate
   (serving set + backups) is dead, the overlay is legitimately degraded
   and the stale bucket is tolerated until something recovers.
2. **Reliable layer bounded.**  In-flight install attempts never exceed
   the configured retry budget, and the pending set stays bounded (no
   unbounded growth from a leak of never-acked sends).
3. **No permanently-pending flows.**  A flow the controller has seen
   must reach a routing decision (physical/overlay/dropped) within the
   grace window.
4. **Scheduler backlogs bounded.**  The per-switch Fig. 7 install queues
   must not grow without bound while faults are active.

When the deployment runs a controller pool (docs/cluster.md), three
pool checks join the list:

5. **Single master per switch.**  At most one live pool member may
   believe it masters a switch; overlapping beliefs must converge
   within the pool grace window while the pool bus is healthy (during
   a bus partition or loss window the overlap is tolerated — the
   generation fencing keeps it harmless — and the clock restarts when
   the bus heals).
6. **Bounded orphan windows.**  A switch whose master died must have a
   new barrier-acked master within the pool grace window (lease expiry
   + election + one reliable handoff budget).
7. **No double-handled flow setups.**  The pool's double-install
   tripwire counter must stay zero.

Violations carry the sim time and a human-readable detail string;
``check_now()`` can also be called once post-recovery for a final
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import SCOTCH_GROUP_ID
from repro.core.overlay import OverlayError
from repro.sim.process import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.app import ScotchApp
    from repro.core.overlay import ScotchOverlay
    from repro.net.topology import Network
    from repro.sim.engine import Simulator

#: Check 4's bound on any one switch's Fig. 7 install backlog.
BACKLOG_LIMIT = 10_000


@dataclass(frozen=True)
class Violation:
    time: float
    name: str
    detail: str


def grace_window(config) -> float:
    """Detection delay + full reliable retry budget (the time the
    control plane is *allowed* to take to heal one fault)."""
    detect = config.heartbeat_interval * (config.heartbeat_miss_limit + 2)
    retry = 0.0
    for attempt in range(config.reliable_install_max_retries + 1):
        retry += min(
            config.reliable_install_timeout * (2 ** attempt),
            config.reliable_install_timeout_cap,
        )
    return detect + retry


class InvariantChecker:
    """Periodic (and on-demand) consistency checks under fault injection."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        overlay: Optional["ScotchOverlay"],
        scotch: Optional["ScotchApp"] = None,
        interval: float = 0.5,
        grace: Optional[float] = None,
        pool=None,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.network = network
        self.overlay = overlay
        self.scotch = scotch
        #: The controller pool (docs/cluster.md); enables checks 5-7.
        self.pool = pool
        if pool is not None:
            from repro.cluster.pool import pool_grace

            self._pool_grace = pool_grace(pool.config)
        else:
            self._pool_grace = 0.0
        self._multi_master_since: Dict[str, float] = {}
        self._orphan_flagged: Dict[str, float] = {}
        self._double_installs_seen = 0
        self.interval = interval
        if grace is not None:
            self.grace = grace
        else:
            # Pool-only deployments have no overlay; the pool's config
            # carries the same reliability knobs.
            source = overlay if overlay is not None else pool
            self.grace = grace_window(source.config)
        self.violations: List[Violation] = []
        #: Called with each :class:`Violation` as it is recorded — the
        #: postmortem collector's trigger feed.  Observers only.
        self.on_violation: Optional[object] = None
        self.checks_run = 0
        #: (switch, bucket label) -> sim time the stale bucket was first
        #: seen; cleared when the bucket heals.
        self._stale_since: Dict[tuple, float] = {}
        self._pending_since: Dict[object, float] = {}
        # Restart-safe tick chain.  The previous flag-only stop() left
        # the pending tick alive, so a stop()/start() cycle doubled the
        # check chain — the exact bug class PeriodicTimer exists to kill.
        self._timer = PeriodicTimer(sim, interval, self._tick)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def _tick(self) -> None:
        if not self._timer.running:
            return
        self.check_now()
        self._timer.rearm()

    # ------------------------------------------------------------------
    def check_now(self) -> List[Violation]:
        """Run every check; returns violations added by this call."""
        before = len(self.violations)
        self.checks_run += 1
        if self.overlay is not None:
            self._check_group_buckets()
            self._check_reliable_layer()
        self._check_pending_flows()
        self._check_scheduler_backlog()
        self._check_pool()
        return self.violations[before:]

    def _violate(self, name: str, detail: str) -> None:
        violation = Violation(self.sim.now, name, detail)
        self.violations.append(violation)
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.instant("invariant.violation", track="faults",
                           invariant=name, detail=detail)
        if self.on_violation is not None:
            self.on_violation(violation)

    # ------------------------------------------------------------------
    def _vswitch_live(self, name: str) -> bool:
        node = self.network.nodes.get(name)
        return node is not None and getattr(node, "alive", True)

    def _check_group_buckets(self) -> None:
        now = self.sim.now
        installed = (self.scotch.groups_installed if self.scotch is not None
                     else self.overlay.active)
        seen = set()
        for switch_name in sorted(installed):
            node = self.network.nodes.get(switch_name)
            if node is None:
                continue
            group = node.datapath.groups.get(SCOTCH_GROUP_ID)
            if group is None:
                continue
            for bucket in group.buckets:
                key = (switch_name, bucket.label)
                if self._vswitch_live(bucket.label) and bucket.label not in self.overlay.dead:
                    continue
                seen.add(key)
                since = self._stale_since.setdefault(key, now)
                if now - since <= self.grace:
                    continue
                # Beyond grace: only a violation if a refresh could
                # actually replace the bucket with live targets.
                try:
                    fresh = self.overlay.group_buckets(switch_name)
                except OverlayError:
                    continue  # backups exhausted -> legitimate degradation
                if all(self._vswitch_live(b.label) for b in fresh):
                    self._violate(
                        "stale-group-bucket",
                        f"{switch_name} group bucket -> {bucket.label} "
                        f"dead for {now - since:.2f}s (> grace {self.grace:.2f}s)",
                    )
        for key in list(self._stale_since):
            if key not in seen:
                del self._stale_since[key]

    def _check_reliable_layer(self) -> None:
        if self.scotch is None:
            return
        reliable = self.scotch.reliable
        limit = self.overlay.config.reliable_install_max_retries + 1
        worst = reliable.max_attempts_in_flight()
        if worst > limit:
            self._violate(
                "reliable-retries-unbounded",
                f"an in-flight install has {worst} attempts (limit {limit})",
            )
        pending = reliable.pending()
        bound = max(64, 8 * len(self.scotch.controller.datapaths))
        if pending > bound:
            self._violate(
                "reliable-pending-unbounded",
                f"{pending} unacked installs outstanding (bound {bound})",
            )

    def _check_pending_flows(self) -> None:
        if self.scotch is None:
            return
        from repro.controller.flow_info_db import ROUTE_PENDING

        now = self.sim.now
        for key, info in self.scotch.flow_db._flows.items():
            if info.route != ROUTE_PENDING:
                self._pending_since.pop(key, None)
                continue
            since = self._pending_since.setdefault(key, info.first_seen)
            if now - since > self.grace:
                self._violate(
                    "flow-stuck-pending",
                    f"flow {key} undecided for {now - since:.2f}s "
                    f"(> grace {self.grace:.2f}s)",
                )
                self._pending_since[key] = now  # re-arm, don't spam every tick

    def _check_scheduler_backlog(self) -> None:
        if self.scotch is None:
            return
        for name in sorted(self.scotch.schedulers):
            backlog = self.scotch.schedulers[name].backlog()
            if backlog > BACKLOG_LIMIT:
                self._violate(
                    "scheduler-backlog-unbounded",
                    f"{name} install backlog {backlog} (limit {BACKLOG_LIMIT})",
                )

    # ------------------------------------------------------------------
    # Controller-pool checks (docs/cluster.md)
    # ------------------------------------------------------------------
    def _check_pool(self) -> None:
        pool = self.pool
        if pool is None:
            return
        now = self.sim.now
        # 5. Single master per switch.  While the bus is impaired the
        # overlap clock resets: split-brain *belief* is expected there
        # and the generation fencing keeps it harmless; what must not
        # happen is overlap persisting on a healthy bus.
        bus_healthy = (pool.bus is not None and not pool.bus._partition
                       and pool.bus.loss == 0.0)
        if not bus_healthy:
            self._multi_master_since.clear()
        else:
            seen = set()
            for dpid in sorted(pool.switch_ids):
                beliefs = pool.master_beliefs(dpid)
                if len(beliefs) <= 1:
                    continue
                seen.add(dpid)
                since = self._multi_master_since.setdefault(dpid, now)
                if now - since > self._pool_grace:
                    self._violate(
                        "pool-multi-master",
                        f"{dpid} claimed by {beliefs} for {now - since:.2f}s "
                        f"(> pool grace {self._pool_grace:.2f}s)",
                    )
                    self._multi_master_since[dpid] = now  # re-arm
            for dpid in list(self._multi_master_since):
                if dpid not in seen:
                    del self._multi_master_since[dpid]
        # 6. Bounded orphan windows.
        for dpid in sorted(pool.orphan_since):
            age = now - pool.orphan_since[dpid]
            flagged = self._orphan_flagged.get(dpid)
            if age > self._pool_grace and flagged != pool.orphan_since[dpid]:
                self._violate(
                    "pool-orphan-window",
                    f"{dpid} masterless for {age:.2f}s "
                    f"(> pool grace {self._pool_grace:.2f}s)",
                )
                self._orphan_flagged[dpid] = pool.orphan_since[dpid]
        # 7. Exactly-once flow setup.
        if pool.double_installs > self._double_installs_seen:
            self._violate(
                "pool-double-install",
                f"{pool.double_installs} duplicate flow installs "
                f"(was {self._double_installs_seen})",
            )
            self._double_installs_seen = pool.double_installs
