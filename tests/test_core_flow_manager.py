"""Tests for the Fig. 7 controller-side queueing system."""

import gc

import pytest

from repro.controller.controller import OpenFlowController
from repro.core.config import ScotchConfig
from repro.core.flow_manager import (
    DROPPED,
    InstallJob,
    InstallScheduler,
    MigrationRequest,
    PathInstaller,
    PendingFlow,
)
from repro.net.flow import FlowKey, FlowSpec
from repro.net.topology import Network
from repro.openflow.messages import FlowMod
from repro.sim.engine import Simulator
from repro.switch.actions import Output
from repro.switch.match import Match
from repro.switch.profiles import IDEAL_SWITCH
from repro.switch.switch import PhysicalSwitch, VSwitch
from repro.testbed.deployment import build_deployment
from repro.traffic import SpoofedFlood


def build(rate=100.0, config=None, n_switches=1):
    sim = Simulator()
    net = Network(sim)
    controller = OpenFlowController(sim, net)
    for i in range(n_switches):
        sw = net.add(PhysicalSwitch(sim, f"s{i}", IDEAL_SWITCH))
        controller.register_switch(sw)
    config = config or ScotchConfig()
    admitted, overlaid = [], []
    schedulers = {}
    for i in range(n_switches):
        schedulers[f"s{i}"] = InstallScheduler(
            sim, controller, f"s{i}", rate, config,
            on_admit=admitted.append, on_overlay=overlaid.append,
        )
    return sim, controller, schedulers, admitted, overlaid


def pending(index, port=1, first_hop="s0"):
    key = FlowKey(f"10.0.0.{index % 250}", "10.0.1.1", 6, 1000 + index, 80)
    return PendingFlow(key=key, first_hop=first_hop, ingress_port=port, packet=None)


def mod():
    return FlowMod(match=Match(dst_ip="9.9.9.9"), priority=100, actions=[Output(1)])


def job(dpid="s0", on_sent=None):
    return InstallJob(dpid, mod(), on_sent=on_sent)


class TestScheduler:
    def test_default_grouping_is_per_port(self):
        """§5.2 fair sharing groups pending flows by ingress port: one
        queue per port, whatever the flows' sources."""
        sim, _, schedulers, _, _ = build(rate=1.0)
        s = schedulers["s0"]
        for index, port in ((1, 7), (2, 7), (3, 9)):
            s.submit_new_flow(pending(index, port=port))
        assert set(s.ingress.queues()) == {7, 9}

    def test_new_flows_served_at_rate_r(self):
        sim, _, schedulers, admitted, _ = build(rate=10.0)
        s = schedulers["s0"]
        for i in range(30):
            s.submit_new_flow(pending(i))
        sim.run(until=1.0)
        assert 8 <= len(admitted) <= 12

    def test_drop_threshold_enforced(self):
        config = ScotchConfig(overlay_threshold=2, drop_threshold=5)
        sim, _, schedulers, _, _ = build(rate=1.0, config=config)
        s = schedulers["s0"]
        outcomes = [s.submit_new_flow(pending(i)) for i in range(8)]
        assert outcomes.count(DROPPED) == 3
        assert s.flows_dropped == 3

    def test_overlay_drain_takes_over_threshold_tail(self):
        config = ScotchConfig(overlay_threshold=3, drop_threshold=100,
                              overlay_install_rate=1000.0)
        sim, _, schedulers, admitted, overlaid = build(rate=1.0, config=config)
        s = schedulers["s0"]
        s.set_overlay_enabled(True)
        for i in range(20):
            s.submit_new_flow(pending(i))
        sim.run(until=0.9)
        # Overlay drain pulls the queue down to the threshold quickly;
        # the rate-R server has served none yet (rate=1).
        assert len(overlaid) == 17
        assert s.ingress.total_backlog() == 3

    def test_overlay_disabled_no_drain(self):
        config = ScotchConfig(overlay_threshold=3, drop_threshold=100)
        sim, _, schedulers, _, overlaid = build(rate=1.0, config=config)
        s = schedulers["s0"]
        for i in range(20):
            s.submit_new_flow(pending(i))
        sim.run(until=0.5)
        assert overlaid == []

    def test_overlay_drain_takes_newest_first(self):
        config = ScotchConfig(overlay_threshold=1, drop_threshold=100,
                              overlay_install_rate=10000.0)
        sim, _, schedulers, _, overlaid = build(rate=0.001, config=config)
        s = schedulers["s0"]
        s.set_overlay_enabled(True)
        flows = [pending(i) for i in range(5)]
        for f in flows:
            s.submit_new_flow(f)
        sim.run(until=0.5)
        # Tail-drain: the newest flows go to the overlay; the oldest stays
        # queued for physical admission.
        assert flows[0] not in overlaid
        assert flows[-1] in overlaid

    def test_priority_admitted_over_migration_over_ingress(self):
        sim, controller, schedulers, admitted, _ = build(rate=1000.0)
        s = schedulers["s0"]
        order = []
        s.submit_new_flow(pending(1))
        s.submit_migration(MigrationRequest(run=lambda: order.append("migration")))
        s.submit_admitted(mod(), on_sent=lambda: order.append("admitted"))
        original_on_admit = s.on_admit
        s.on_admit = lambda p: order.append("ingress")
        sim.run(until=0.1)
        assert order == ["admitted", "migration", "ingress"]

    def test_round_robin_across_ports(self):
        sim, _, schedulers, admitted, _ = build(rate=1000.0)
        s = schedulers["s0"]
        for i in range(10):
            s.submit_new_flow(pending(i, port=1))
        for i in range(2):
            s.submit_new_flow(pending(100 + i, port=2))
        sim.run(until=0.005)
        ports = [p.ingress_port for p in admitted[:4]]
        assert ports.count(2) >= 1  # port 2 not starved by port 1's backlog

    def test_admitted_jobs_sent_to_switch(self):
        sim, controller, schedulers, _, _ = build(rate=1000.0)
        s = schedulers["s0"]
        s.submit_admitted(mod())
        sim.run(until=0.1)
        assert len(controller.datapaths["s0"].switch.datapath.table(0)) == 1
        assert s.mods_sent == 1

    def test_backlog_counts_admitted_and_migration(self):
        sim, _, schedulers, _, _ = build(rate=0.001)
        s = schedulers["s0"]
        s.submit_admitted(mod())
        s.submit_migration(MigrationRequest(run=lambda: None))
        assert s.backlog() == 2

    def test_invalid_rate_rejected(self):
        sim, controller, schedulers, _, _ = build()
        with pytest.raises(ValueError):
            InstallScheduler(sim, controller, "s0", 0.0, ScotchConfig(),
                             on_admit=lambda p: None, on_overlay=lambda p: None)


class TestPathInstaller:
    def test_sequenced_install_last_hop_first(self, monkeypatch):
        monkeypatch.setattr(PathInstaller, "SETTLE_DELAY", 0.001)
        sim, controller, schedulers, _, _ = build(rate=1000.0, n_switches=3)
        installer = PathInstaller(controller, schedulers)
        sent_order = []
        jobs = [
            job(dpid="s2", on_sent=lambda: sent_order.append("s2")),
            job(dpid="s1", on_sent=lambda: sent_order.append("s1")),
            job(dpid="s0", on_sent=lambda: sent_order.append("s0")),
        ]
        done = []
        installer.install(jobs, on_complete=lambda: done.append(sim.now))
        sim.run(until=1.0)
        assert sent_order == ["s2", "s1", "s0"]
        assert done and done[0] > 0

    def test_vswitch_jobs_bypass_schedulers(self, monkeypatch):
        monkeypatch.setattr(PathInstaller, "SETTLE_DELAY", 0.001)
        sim, controller, schedulers, _, _ = build(rate=0.001)  # scheduler ~stuck
        vswitch = controller.network.add(VSwitch(sim, "v0", IDEAL_SWITCH))
        controller.register_switch(vswitch)
        installer = PathInstaller(controller, schedulers)
        done = []
        installer.install([job(dpid="v0")], on_complete=lambda: done.append(True))
        sim.run(until=0.5)
        assert done == [True]
        assert len(vswitch.datapath.table(0)) == 1

    def test_empty_job_list_completes_immediately(self):
        sim, controller, schedulers, _, _ = build()
        installer = PathInstaller(controller, schedulers)
        done = []
        installer.install([], on_complete=lambda: done.append(True))
        assert done == [True]


def test_flow_setups_leave_no_reference_cycles():
    """Every object a flow setup makes dies by reference count.

    A Scotch flood on the Fig. 5 deployment installs multi-hop paths
    (make-before-break, through ``PathInstaller``) and migrates one
    elephant back to the physical path; with the cyclic collector off
    for the run, it finds nothing to collect afterwards.
    """
    dep = build_deployment(seed=1, racks=2, mesh_per_rack=1,
                           config=ScotchConfig(overlay_threshold=2))
    SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=800.0).start(
        at=0.2, stop_at=3.0)
    key = FlowKey("10.99.0.99", dep.servers[0].ip, 6, 5555, 80)
    dep.attacker.start_flow(FlowSpec(key=key, start_time=1.0, size_packets=1000,
                                     packet_size=1500, rate_pps=500.0, batch=10))
    gc.collect()
    gc.disable()
    try:
        dep.sim.run(until=3.5)
        cyclic = gc.collect()
    finally:
        gc.enable()
    assert dep.scotch.migrator.migrations_completed == 1
    assert dep.scotch.flow_db.get(key).route == "physical"
    assert cyclic == 0
