"""The four benchmark workloads.

Each workload composes the topology builders and traffic sources
directly and owns its ``sim.run(until=...)`` — it does not go through
the scenario runners (``run_scale``, ``run_chaos``, ``run_pool_chaos``,
``run_telemetry_point``), so set-up and run are timed separately and the
benchmark survives those runners being merged or deleted.

Load model: every workload is a fixed-seed batch job.  Traffic is
open-loop in *simulated* time (sources emit on schedule whether or not
the control path keeps up); the host-side figure is work completed per
wall second at the stated input size.

``scale`` multiplies every simulated time (windows, fault times, flow
lengths); rates and topology sizes are fixed.  ``scale=1.0`` is the
reference size each class documents.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import median, quantiles
from typing import Callable, Dict, List, Optional

from benchmarks.e2e.metrics import P99_MIN_SAMPLES

from repro.cluster.pool import pool_grace
from repro.cluster.scenario import (
    PoolTraffic,
    build_pool_deployment,
    pool_chaos_config,
)
from repro.core.config import ScotchConfig
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.faults.scenario import chaos_config, default_plan
from repro.net.flow import FlowKey, FlowSpec
from repro.obs import Observability, observed
from repro.obs.health import HealthEngine
from repro.switch.switch import OpenFlowSwitch
from repro.testbed.deployment import build_deployment
from repro.testbed.scale import build_scale_overlay
from repro.traffic import NewFlowSource, SpoofedFlood


def _frac(numerator: float, denominator: float) -> float:
    """A share that reads 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


class Workload:
    """Set-up happens in ``__init__``; :meth:`run` is the timed part."""

    name = ""
    #: The unit of completed work ``ops_per_wall_s`` counts.
    op = ""
    #: The load must push flows onto the overlay, or the run is void.
    expects_overlay = False
    #: ``health=False`` builds a variant without metrics registry and
    #: health engine (the off side of ``obs.health_tax_frac``).
    health_optional = False

    # Handles subclasses fill in; the counter readers skip what is None.
    scotch = None
    pool = None
    checker: Optional[InvariantChecker] = None
    health: Optional[HealthEngine] = None

    #: The run is cut at this many evenly spaced simulated times, which
    #: leaves the simulation as it was (``sim.run(until=...)`` resumes
    #: where it stopped) and lets the caller act in between.
    SLICES = 4

    def run(self, pause: Callable[[], None] = lambda: None) -> None:
        """Simulate to ``until``; ``pause`` is called after each slice."""
        for index in range(1, self.SLICES + 1):
            self.sim.run(until=self.until * index / self.SLICES)
            pause()
        if self.checker is not None:
            self.checker.check_now()

    # -- results --------------------------------------------------------
    def outcome(self) -> Dict[str, object]:
        """``attempted``/``completed`` op counts, the simulated
        ``latencies_s`` of completed ops, workload-specific figures."""
        raise NotImplementedError

    def _flow_outcome(self, client, sinks, start: float, end: float
                      ) -> Dict[str, object]:
        """Client flows first-sent in ``[start, end)``; completed when
        any of ``sinks`` saw a packet of the flow."""
        attempted = 0
        latencies: List[float] = []
        for key, record in client.sent_tap.records.items():
            sent_at = record.first_sent_at
            if sent_at is None or not start <= sent_at < end:
                continue
            attempted += 1
            for sink in sinks:
                got = sink.recv_tap.records.get(key)
                if got is not None and got.first_received_at is not None:
                    latencies.append(got.first_received_at - sent_at)
                    break
        return {"attempted": attempted, "completed": len(latencies),
                "latencies_s": latencies}

    # -- counters the modules already keep ------------------------------
    def counters(self, attempted: int) -> Dict[str, float]:
        """Per-layer figures (and ``ctrl_msgs_per_op``) read from public
        counters after a run.

        Everything is a sum over the deployment, so a workload without a
        layer reads 0 for it (no links on ``pool_failover``, no pool on
        the other three)."""
        switches = [node for node in self.network.nodes.values()
                    if isinstance(node, OpenFlowSwitch)]
        links = [port.link for node in self.network.nodes.values()
                 for port in node.ports.values() if port.link is not None]
        tables = [t for s in switches for t in s.datapath.tables]
        channels = [s.channel for s in switches]

        def total(objects, attr: str) -> int:
            return sum(getattr(obj, attr) for obj in objects)

        datapaths = [s.datapath for s in switches]
        ofas = [s.ofa for s in switches]
        sent = total(ofas, "packet_ins_sent")
        ofa_dropped = total(ofas, "packet_ins_dropped")
        ch_sent = (total(channels, "to_controller_count")
                   + total(channels, "to_switch_count"))
        ch_dropped = (total(channels, "to_controller_dropped")
                      + total(channels, "to_switch_dropped"))
        out: Dict[str, float] = {
            "net.link_drop_frac": _frac(
                total(links, "dropped"),
                total(links, "dropped") + total(links, "delivered")),
            "switch.datapath.punt_frac": _frac(
                total(datapaths, "punted"), total(datapaths, "processed")),
            "switch.flow_table.lookups_per_op": _frac(
                total(tables, "lookups"), attempted),
            "switch.flow_table.hit_frac": _frac(
                total(tables, "hits"), total(tables, "lookups")),
            "switch.ofa.packet_in_drop_frac": _frac(
                ofa_dropped, sent + ofa_dropped),
            "switch.ofa.install_fail_frac": _frac(
                total(ofas, "installs_failed"),
                total(ofas, "installs_attempted")),
            "openflow.drop_frac": _frac(ch_dropped, ch_sent),
            "ctrl_msgs_per_op": _frac(ch_sent, attempted),
        }
        scotch = self.scotch
        reliable = scotch.reliable if scotch is not None else None
        poller = scotch.stats_poller if scotch is not None else None
        schedulers = list(scotch.schedulers.values()) if scotch else []
        admitted = total(schedulers, "flows_admitted")
        overlaid = total(schedulers, "flows_overlaid")
        out.update({
            "controller.retry_frac": _frac(
                reliable.retries, reliable.sent) if reliable else 0.0,
            "controller.abandoned": reliable.abandoned if reliable else 0,
            "controller.polls_sent": poller.polls_sent if poller else 0,
            "core.overlay_flow_frac": _frac(overlaid, admitted + overlaid),
            "core.flows_dropped": total(schedulers, "flows_dropped"),
            "core.migrations_completed": (
                scotch.migrator.migrations_completed if scotch else 0),
        })
        pool = self.pool
        out.update({
            "cluster.orphaned_frac": _frac(
                pool.orphaned, pool.packet_ins_total) if pool else 0.0,
            "cluster.bus_msgs_per_op": _frac(
                pool.bus.sent, attempted) if pool else 0.0,
            "cluster.bus_drop_frac": _frac(
                pool.bus.dropped + pool.bus.partition_blocked,
                pool.bus.sent) if pool else 0.0,
            "cluster.double_installs": pool.double_installs if pool else 0,
            "faults.invariant_checks": (
                self.checker.checks_run if self.checker else 0),
            "faults.violations": (
                len(self.checker.violations) if self.checker else 0),
            "obs.alert_transitions": (
                len(self.health.timeline) if self.health else 0),
        })
        return out

    def exact(self, events: int) -> Dict[str, object]:
        """Every deterministic figure of a finished run: the exact
        end-to-end metrics (None where the workload does not define
        one), the op counts, and the per-layer counters."""
        outcome = self.outcome()
        attempted, completed = outcome["attempted"], outcome["completed"]
        latencies = sorted(outcome.pop("latencies_s"))
        windows = outcome.pop("failover_windows_s", None)
        figures: Dict[str, object] = dict(outcome)
        figures.update(self.counters(attempted))
        figures.update({
            "delivered_frac": _frac(completed, attempted),
            "failed_frac": _frac(attempted - completed, attempted),
            "latency_samples": len(latencies),
            "setup_latency_p50_ms": (
                median(latencies) * 1e3 if latencies else None),
            "setup_latency_p99_ms": (
                quantiles(latencies, n=100, method="inclusive")[98] * 1e3
                if len(latencies) >= P99_MIN_SAMPLES else None),
            "events_per_op": _frac(events, attempted),
            "failover_p50_s": median(windows) if windows else None,
            "failover_windows": len(windows) if windows is not None else None,
        })
        figures.setdefault("elephant_recall", None)
        return figures

    def verify(self, figures: Dict[str, object]) -> List[str]:
        """Output checks on :meth:`exact`'s figures; returns what failed."""
        failed = []
        if figures["attempted"] < 1:
            failed.append("no op was attempted")
        for name in ("faults.violations", "cluster.double_installs"):
            if figures[name] != 0:
                failed.append(f"{name} = {figures[name]}, expected 0")
        if self.expects_overlay and not figures["core.overlay_flow_frac"] > 0:
            failed.append("the overlay never activated "
                          "(core.overlay_flow_frac = 0)")
        return failed


class FlashcrowdScale(Workload):
    """504 vSwitches; 16 sources at 20 f/s on [0.25, 4.75) s, x10 on
    [1.5, 3.5); run to 5.0 s; observability off."""

    name = "flashcrowd_scale"
    op = "client flow delivered to its target, first-sent in [0.5, 4.5) s"
    expects_overlay = True

    BASE_FPS = 20.0
    CROWD_X = 10.0

    def __init__(self, seed: int, scale: float, health: bool = True):
        dep = build_scale_overlay(seed=seed, host_vswitches=480, mesh=24,
                                  tors=8, targets=16)
        self.dep = dep
        self.sim, self.network, self.scotch = dep.sim, dep.network, dep.scotch
        self.until = 5.0 * scale
        self.window = (0.5 * scale, 4.5 * scale)
        sources = [
            NewFlowSource(dep.sim, dep.client, target.ip,
                          rate_fps=self.BASE_FPS,
                          rng_name=f"scale:{target.name}")
            for target in dep.targets
        ]
        for source in sources:
            source.start(at=0.25 * scale, stop_at=4.75 * scale)

        def set_rate(rate: float) -> None:
            for source in sources:
                source.rate_fps = rate

        dep.sim.schedule_at(1.5 * scale, set_rate,
                            self.BASE_FPS * self.CROWD_X)
        dep.sim.schedule_at(3.5 * scale, set_rate, self.BASE_FPS)

    def outcome(self) -> Dict[str, object]:
        return self._flow_outcome(self.dep.client, self.dep.targets,
                                  *self.window)


def _scaled_plan(plan: FaultPlan, scale: float) -> FaultPlan:
    """``plan`` with every time, duration and flap period multiplied."""
    events = []
    for event in plan:
        params = tuple(
            (key, value * scale if key == "period" else value)
            for key, value in event.params)
        events.append(replace(event, time=event.time * scale,
                              duration=event.duration * scale, params=params))
    return FaultPlan(events)


class ChaosHealth(Workload):
    """2 racks x 2 servers, 1 mesh/rack + 1 backup, ``chaos_config()``,
    metrics registry + ``HealthEngine(0.25)``; client 100 f/s on
    [0.5, 15) s, spoofed flood 500 f/s on [1.0, 15); ``default_plan(16)``
    injected; invariants every 0.5 s; run to 16 s.

    ``health=False`` drops the metrics registry and the health engine —
    the off side of ``obs.health_tax_frac``."""

    name = "chaos_health"
    op = "client flow delivered, first-sent in [1.5, 15) s"
    expects_overlay = True
    health_optional = True

    def __init__(self, seed: int, scale: float, health: bool = True):
        config = chaos_config()
        if health:
            private = Observability(trace=False, metrics=True)
            # Simulator() binds the process default at construction;
            # nothing consults it afterwards.
            with observed(private):
                dep = self._build(seed, config)
            self.health = HealthEngine(dep.sim, private.metrics,
                                       interval=0.25)
            self.health.start()
        else:
            dep = self._build(seed, config)
        self.dep = dep
        self.sim, self.network, self.scotch = dep.sim, dep.network, dep.scotch
        self.until = 16.0 * scale
        self.window = (1.5 * scale, 15.0 * scale)
        server_ip = dep.servers[0].ip
        NewFlowSource(dep.sim, dep.client, server_ip, rate_fps=100.0).start(
            at=0.5 * scale, stop_at=15.0 * scale)
        SpoofedFlood(dep.sim, dep.attacker, server_ip, rate_fps=500.0).start(
            at=1.0 * scale, stop_at=15.0 * scale)
        plan = _scaled_plan(default_plan(16.0), scale)
        FaultInjector(dep.sim, dep.network, dep.controller, plan).start()
        self.checker = InvariantChecker(dep.sim, dep.network, dep.overlay,
                                        scotch=dep.scotch, interval=0.5)
        self.checker.start()

    @staticmethod
    def _build(seed: int, config: ScotchConfig):
        return build_deployment(seed=seed, racks=2, servers_per_rack=2,
                                mesh_per_rack=1, backups=1, config=config)

    def outcome(self) -> Dict[str, object]:
        return self._flow_outcome(self.dep.client, [self.dep.servers[0]],
                                  *self.window)


class ElephantMix(Workload):
    """2 racks, 1 mesh/rack, default ``ScotchConfig`` (poll stats);
    spoofed flood 300 f/s on [0.5, 10) s; 12 elephants (2,000 x 1,000 B
    at 300 pps, one packet per event) and 20 mice (100 x 400 B at
    200 pps) from the attacker port; run to 11 s; observability off."""

    name = "elephant_mix"
    op = "data packet delivered at the server"

    ELEPHANTS, MICE = 12, 20
    ELEPHANT_PPS, MOUSE_PPS = 300.0, 200.0

    def __init__(self, seed: int, scale: float, health: bool = True):
        self.config = ScotchConfig()
        dep = build_deployment(seed=seed, racks=2, mesh_per_rack=1,
                               config=self.config)
        self.dep = dep
        self.sim, self.network, self.scotch = dep.sim, dep.network, dep.scotch
        self.until = 11.0 * scale
        server_ip = dep.servers[0].ip
        SpoofedFlood(dep.sim, dep.attacker, server_ip, rate_fps=300.0).start(
            at=0.5 * scale, stop_at=10.0 * scale)
        self.elephant_keys = self._inject(
            self.ELEPHANTS, "10.99.1", 6000, 1.5 * scale, scale,
            packets=max(1, round(2000 * scale)), size=1000,
            pps=self.ELEPHANT_PPS)
        self.mouse_keys = self._inject(
            self.MICE, "10.99.2", 7000, 1.75 * scale, scale,
            packets=max(1, round(100 * scale)), size=400, pps=self.MOUSE_PPS)

    def _inject(self, count: int, prefix: str, port0: int, first: float,
                scale: float, packets: int, size: int, pps: float
                ) -> List[FlowKey]:
        server_ip = self.dep.servers[0].ip
        keys = []
        for index in range(count):
            key = FlowKey(f"{prefix}.{index + 1}", server_ip, 6,
                          port0 + index, 80)
            keys.append(key)
            self.dep.attacker.start_flow(FlowSpec(
                key=key, start_time=first + 0.25 * scale * index,
                size_packets=packets, packet_size=size, rate_pps=pps,
                batch=1))
        return keys

    def outcome(self) -> Dict[str, object]:
        sent = self.dep.attacker.sent_tap.records
        received = self.dep.servers[0].recv_tap.records
        attempted = completed = short_flows = 0
        latencies = []
        for key in self.elephant_keys + self.mouse_keys:
            packets_sent = sent[key].packets_sent
            got = received.get(key)
            packets_got = got.packets_received if got is not None else 0
            attempted += packets_sent
            completed += min(packets_got, packets_sent)
            short_flows += packets_got < packets_sent
            if got is not None:
                latencies.append(
                    got.first_received_at - sent[key].first_sent_at)
        # Truth as telemetry/scorecard.py defines it: injected elephants
        # that sent past the threshold *and* rode the overlay (only
        # overlay flows are visible to the monitoring of paper §5.3).
        threshold = self.config.elephant_packet_threshold
        truth = set()
        for key in self.elephant_keys:
            if sent[key].packets_sent < threshold:
                continue
            info = self.scotch.flow_db.get(key)
            if info is not None and (info.entry_vswitch is not None
                                     or info.migrated_at is not None):
                truth.add(key)
        flagged = truth & set(self.scotch.migrator.elephants_flagged)
        return {
            "attempted": attempted, "completed": completed,
            "latencies_s": latencies,
            "flows": len(self.elephant_keys) + len(self.mouse_keys),
            "short_flows": short_flows,
            "elephant_truth": len(truth),
            "elephant_recall": _frac(len(flagged), len(truth)),
        }

    def verify(self, figures: Dict[str, object]) -> List[str]:
        failed = super().verify(figures)
        if figures["core.migrations_completed"] < 1:
            failed.append("no elephant migration completed")
        if not figures["elephant_recall"] > 0:
            failed.append(f"elephant_recall = 0 of "
                          f"{figures['elephant_truth']} true elephants")
        return failed


class PoolFailover(Workload):
    """16 control-plane-only switches, 4 pool members
    (``pool_chaos_config(4)``); 4,000 Packet-In/s on [0.5, 59) s; members
    c1/c2/c3 crashed at 4/16/28 s for 8 s each; pool invariants every
    0.5 s; run to 60 s; observability off."""

    name = "pool_failover"
    op = "Packet-In handled exactly once"

    CRASHES = (("c1", 4.0), ("c2", 16.0), ("c3", 28.0))
    DOWN_FOR = 8.0

    def __init__(self, seed: int, scale: float, health: bool = True):
        config = pool_chaos_config(4)
        dep = build_pool_deployment(seed=seed, switches=16, config=config)
        self.dep = dep
        self.sim, self.network, self.pool = dep.sim, dep.network, dep.pool
        self.until = 60.0 * scale
        self.traffic = PoolTraffic(dep.sim, dep.switches)
        self.traffic.start(at=0.5 * scale, stop_at=59.0 * scale,
                           rate_fps=4000.0)
        plan = FaultPlan()
        for member, at in self.CRASHES:
            plan.pool_member_crash(at * scale, member,
                                   down_for=self.DOWN_FOR * scale)
        FaultInjector(dep.sim, dep.network, dep.controller, plan,
                      pool=dep.pool).start()
        self.checker = InvariantChecker(dep.sim, dep.network, overlay=None,
                                        pool=dep.pool,
                                        grace=pool_grace(config),
                                        interval=0.5)
        self.checker.start()

    def outcome(self) -> Dict[str, object]:
        pool = self.pool
        handled = sum(m.packet_ins_handled for m in pool.members.values())
        return {
            "attempted": self.traffic.emitted,
            "completed": min(handled, self.traffic.emitted),
            "latencies_s": [],
            "failover_windows_s": list(pool.failover_windows),
        }

    def verify(self, figures: Dict[str, object]) -> List[str]:
        failed = super().verify(figures)
        if figures["failover_windows"] < len(self.CRASHES):
            failed.append(f"{figures['failover_windows']} failover windows "
                          f"for {len(self.CRASHES)} injected crashes")
        return failed


WORKLOADS = {cls.name: cls for cls in (
    FlashcrowdScale, ChaosHealth, ElephantMix, PoolFailover)}
