"""The canonical controller-pool scenarios: chaos and autoscale.

Shared by the ``scotch-repro pool`` CLI command, the pool test-suite
and ``benchmarks/bench_pool_scaling.py`` so they all measure the same
thing: a pool of controller members fronting a set of switches under
fabricated Packet-In load, with the pool fault classes
(docs/cluster.md) injected on a fixed timeline, the invariant checker
(single-master, bounded orphan windows, exactly-once flow setup)
watching throughout.

The deployment here is control-plane only — switches carry no data
plane, the traffic driver fabricates Packet-Ins straight into each
switch's control channel — so a run isolates exactly the machinery the
pool adds: election, role handoff, orphan buffering, autoscaling and
EASM rebalancing.  The full Scotch data-plane pipeline stays on the
single-controller deployment, which never builds a pool
(``ScotchConfig.controllers == 1``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.pool import ControllerPool, pool_grace
from repro.controller.controller import OpenFlowController
from repro.core.config import ScotchConfig
from repro.faults.plan import FaultPlan
from repro.faults.scenario import RunReport, Scenario, chaos_config, register
from repro.net.packet import Packet
from repro.obs.artifacts import POOL_EVENTS
from repro.obs.health import default_slis, pool_slis
from repro.obs.rules import builtin_rules, pool_rules
from repro.net.topology import Network
from repro.openflow.messages import PacketIn
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.switch.profiles import OPEN_VSWITCH
from repro.switch.switch import VSwitch


def pool_chaos_config(controllers: int = 3) -> ScotchConfig:
    """Fast pool knobs (on top of the chaos config's fast failure
    detection and tight retry budget) so a short run exercises full
    lease-expiry -> election -> handoff cycles several times over."""
    return replace(
        chaos_config(),
        controllers=controllers,
        pool_min_controllers=1,
        pool_max_controllers=max(4, controllers),
        pool_lease_interval=0.25,
        pool_lease_timeout=0.75,
        pool_election_timeout=0.5,
        pool_bus_delay=0.005,
        pool_rebalance_interval=0.5,
    )


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
@dataclass
class PoolDeployment:
    """Handles to everything in the pool deployment."""

    sim: Simulator
    network: Network
    controller: OpenFlowController
    pool: ControllerPool
    switches: List[VSwitch]
    config: ScotchConfig


def build_pool_deployment(
    seed: int = 0,
    switches: int = 6,
    config: Optional[ScotchConfig] = None,
) -> PoolDeployment:
    """Build a pool-managed control plane: N switches, one shared
    frontend controller, a :class:`ControllerPool` of
    ``config.controllers`` members."""
    if switches < 1:
        raise ValueError("need at least one switch")
    config = config or pool_chaos_config()
    sim = Simulator(seed=seed)
    network = Network(sim)
    nodes = [network.add(VSwitch(sim, f"sw{i}", OPEN_VSWITCH))
             for i in range(switches)]
    controller = OpenFlowController(sim, network)
    for node in nodes:
        controller.register_switch(node)
    pool = ControllerPool(config)
    controller.add_app(pool)
    for node in nodes:
        pool.manage(node.name)
    return PoolDeployment(sim=sim, network=network, controller=controller,
                          pool=pool, switches=nodes, config=config)


# ----------------------------------------------------------------------
# Traffic: fabricated Packet-Ins, deterministic (no RNG draws)
# ----------------------------------------------------------------------
class PoolTraffic:
    """Drives Packet-Ins into the switches' control channels.

    Fully deterministic: fixed inter-arrival (``1 / rate_fps``),
    round-robin across switches, flow five-tuples cycling through
    ``flows_per_switch`` source ports per switch — so repeated packets
    of the same flow exercise the owner-dedup path and new ports
    exercise fresh installs."""

    def __init__(self, sim: Simulator, switches: Sequence[VSwitch],
                 flows_per_switch: int = 64):
        if not switches:
            raise ValueError("need at least one switch to drive")
        self.sim = sim
        self.switches = list(switches)
        self.flows_per_switch = flows_per_switch
        self.emitted = 0

    def start(self, at: float, stop_at: float, rate_fps: float) -> None:
        """Emit from absolute sim time ``at`` until ``stop_at``."""
        if rate_fps <= 0 or stop_at <= at:
            raise ValueError("need a positive rate and a non-empty window")
        delay = max(0.0, at - self.sim.now)
        Process(self.sim, self._drive(stop_at, rate_fps), start_delay=delay)

    def _drive(self, stop_at: float, rate_fps: float):
        interval = 1.0 / rate_fps
        index = 0
        while self.sim.now < stop_at:
            switch = self.switches[index % len(self.switches)]
            slot = (index // len(self.switches)) % self.flows_per_switch
            packet = Packet(
                src_ip=f"10.1.{index % len(self.switches)}.1",
                dst_ip="10.0.0.10",
                src_port=1024 + slot,
                dst_port=80,
                created_at=self.sim.now,
            )
            switch.channel.send_to_controller(PacketIn(
                datapath_id=switch.name, packet=packet, in_port=1))
            self.emitted += 1
            index += 1
            yield interval


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
def default_pool_plan(duration: float = 24.0) -> FaultPlan:
    """One of each pool fault class against a 3-member pool: a member
    crash (with restore), a lossy-bus window, a split-brain partition."""
    if duration < 22.0:
        raise ValueError("the default pool plan needs at least 22 s")
    plan = FaultPlan()
    plan.pool_member_crash(4.0, "c1", down_for=6.0)
    plan.pool_election_loss(12.0, loss=0.4, duration=2.0)
    plan.pool_partition(16.0, [["c0"], ["c1", "c2"]], duration=2.0)
    return plan


def randomized_pool_plan(
    rng_registry,
    duration: float,
    members: Sequence[str],
) -> FaultPlan:
    """Draw three pool faults, at or after t = 2 s, from
    ``rng_registry.stream("pool.faults")``.

    Kept here (not in :meth:`FaultPlan.randomized`) so the pool kinds
    never enter that method's ``rng.choice(KINDS)`` draw sequence — the
    golden chaos fixtures depend on it."""
    from repro.faults.plan import POOL_KINDS

    start = 2.0
    if duration <= start:
        raise ValueError("duration must exceed the start offset")
    members = sorted(members)
    if len(members) < 2:
        raise ValueError("need at least two pool members to break")
    rng = rng_registry.stream("pool.faults")
    plan = FaultPlan()
    window = duration - start
    for _ in range(3):
        at = start + rng.uniform(0.0, window * 0.7)
        kind = rng.choice(POOL_KINDS)
        if kind == "pool_member_crash":
            plan.pool_member_crash(at, rng.choice(members),
                                   down_for=rng.uniform(2.0, window * 0.3))
        elif kind == "pool_election_loss":
            plan.pool_election_loss(at, loss=rng.uniform(0.2, 0.6),
                                    duration=rng.uniform(1.0, 3.0))
        else:  # pool_partition
            split = rng.randint(1, len(members) - 1)
            plan.pool_partition(at, [members[:split], members[split:]],
                                duration=rng.uniform(1.0, 3.0))
    return plan


# ----------------------------------------------------------------------
# Scenario entries (repro.faults.scenario.run does the running)
# ----------------------------------------------------------------------
def _worst(samples: List[float]) -> str:
    return f"{max(samples):.3f}s max over {len(samples)}" if samples else "none"


@register
class PoolChaos(Scenario):
    """The chaos gauntlet: a steady Packet-In load while one of each
    pool fault class hits a 3-member pool."""

    name = "pool_chaos"
    duration = 24.0
    knobs = {"controllers": 3, "switches": 6, "rate_fps": 300.0}
    table_title = "Pool report"

    def default_config(self) -> ScotchConfig:
        return pool_chaos_config(self.knobs["controllers"])

    def default_plan(self) -> FaultPlan:
        return default_pool_plan(self.duration)

    def build(self) -> PoolDeployment:
        return build_pool_deployment(seed=self.seed,
                                     switches=self.knobs["switches"],
                                     config=self.config)

    def traffic(self, dep: PoolDeployment) -> None:
        PoolTraffic(dep.sim, dep.switches).start(
            at=0.5, stop_at=self.duration - 1.0,
            rate_fps=self.knobs["rate_fps"])

    def health_catalog(self):
        return builtin_rules() + pool_rules(), default_slis() + pool_slis()

    def grace(self) -> float:
        return pool_grace(self.config)

    def measures(self, dep: PoolDeployment) -> Dict[str, Any]:
        pool = dep.pool

        def count(name: str) -> int:
            return sum(1 for e in pool.events if e["event"] == name)

        return {
            "controllers": dep.config.controllers,
            "switches": len(dep.switches),
            # Named after the artifact kind: write_artifacts finds a
            # log, and its headerless JSONL text, under the kind's name.
            POOL_EVENTS: list(pool.events),
            POOL_EVENTS + "_jsonl": pool.events_jsonl(),
            "packet_ins_total": pool.packet_ins_total,
            "packet_ins_handled": sum(m.packet_ins_handled
                                      for m in pool.members.values()),
            "orphaned": pool.orphaned,
            "drained": pool.drained,
            "orphan_dropped": pool.orphan_dropped,
            "double_installs": pool.double_installs,
            "stale_role_errors": pool.stale_role_errors,
            "flow_reclaims": pool.flow_reclaims,
            "handoffs_acked": count("role-acked"),
            "elections": count("leader-elected"),
            "failover_windows": list(pool.failover_windows),
            "migration_latencies": list(pool.migration_latencies),
            "members_live": pool.live_member_count(),
            "members_total": len(pool.members),
            # Switches whose acked master is alive at the end of the run.
            "acked_master": {dpid: master
                             for dpid, master in pool.acked_master.items()
                             if pool.members[master].alive},
            "bus": {
                "sent": pool.bus.sent,
                "delivered": pool.bus.delivered,
                "dropped": pool.bus.dropped,
                "partition_blocked": pool.bus.partition_blocked,
            },
        }

    @staticmethod
    def healthy(report: RunReport) -> bool:
        """No invariant violations, nothing double-handled, every
        managed switch ended the run with a live acked master."""
        return (not report.violations and report.double_installs == 0
                and len(report.acked_master) == report.switches)

    @staticmethod
    def headline(report: RunReport) -> str:
        return (f"Pool chaos — seed {report.seed}, {report.duration:.0f}s, "
                f"{report.controllers} controllers, "
                f"{report.switches} switches")

    @staticmethod
    def rows(report: RunReport) -> List[Sequence[object]]:
        bus = report.bus
        return [
            ["packet-ins (total/handled)",
             f"{report.packet_ins_total}/{report.packet_ins_handled}"],
            ["orphaned / drained / dropped",
             f"{report.orphaned}/{report.drained}/{report.orphan_dropped}"],
            ["role handoffs acked", report.handoffs_acked],
            ["elections", report.elections],
            ["failover windows", _worst(report.failover_windows)],
            ["migration latencies", _worst(report.migration_latencies)],
            ["flow reclaims", report.flow_reclaims],
            ["double installs", report.double_installs],
            ["stale RoleMods rejected", report.stale_role_errors],
            ["members (live/total)",
             f"{report.members_live}/{report.members_total}"],
            ["bus sent/delivered/dropped/blocked",
             f"{bus['sent']}/{bus['delivered']}/{bus['dropped']}/"
             f"{bus['partition_blocked']}"],
            ["invariant checks / violations",
             f"{report.invariant_checks}/{len(report.violations)}"],
            ["pool grace window (s)", f"{report.grace:.2f}"],
        ]

    @staticmethod
    def closing(report: RunReport) -> List[str]:
        verdict = "HEALTHY" if report.healthy else "DEGRADED"
        return [f"verdict: {verdict} ({len(report.violations)} violations, "
                f"{report.double_installs} double installs, "
                f"{len(report.acked_master)}/{report.switches} switches "
                f"mastered)"]


@register
class PoolAutoscale(PoolChaos):
    """The flash-crowd autoscale lifecycle: the pool starts with ONE
    member; a burst drives pool-wide PPS over the high-water mark, the
    leader spawns members up to the ceiling; after the burst the
    cooldown drains and retires them back toward the floor.  No faults —
    the injector and the invariant checker still watch."""

    name = "pool_autoscale"
    duration = 30.0
    knobs = {"switches": 6, "base_rate": 200.0, "burst_rate": 6000.0,
             "burst_start": 5.0, "burst_stop": 14.0}

    def default_config(self) -> ScotchConfig:
        return replace(
            pool_chaos_config(1),
            pool_max_controllers=3,
            pool_scale_up_pps=1000.0,
            pool_scale_up_hold=0.5,
            pool_scale_down_pps=500.0,
            pool_scale_cooldown=3.0,
            pool_warmup=1.5,
        )

    def default_plan(self) -> FaultPlan:
        return FaultPlan()

    def traffic(self, dep: PoolDeployment) -> None:
        knobs = self.knobs
        PoolTraffic(dep.sim, dep.switches).start(
            at=0.5, stop_at=self.duration - 1.0, rate_fps=knobs["base_rate"])
        PoolTraffic(dep.sim, dep.switches, flows_per_switch=512).start(
            at=knobs["burst_start"], stop_at=knobs["burst_stop"],
            rate_fps=knobs["burst_rate"])


def peak_live_members(report: RunReport) -> int:
    """Reconstruct the peak live-member count from the event log."""
    live = report.controllers
    peak = live
    for event in report.pool_events:
        if event["event"] in ("member-spawn", "member-restore"):
            live += 1
        elif event["event"] in ("member-crash", "member-retired"):
            live -= 1
        peak = max(peak, live)
    return peak
