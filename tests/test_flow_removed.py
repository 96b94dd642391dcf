"""Tests for FlowRemoved generation and controller-state retirement."""

from repro.controller.base_app import BaseApp
from repro.controller.controller import OpenFlowController
from repro.net.flow import FlowKey
from repro.net.topology import Network
from repro.openflow.messages import FlowMod
from repro.sim.engine import Simulator
from repro.switch.actions import Output
from repro.switch.match import Match
from repro.switch.profiles import IDEAL_SWITCH
from repro.switch.switch import PhysicalSwitch
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood

KEY = FlowKey("1.1.1.1", "2.2.2.2", 6, 10, 80)


class Collector(BaseApp):
    def __init__(self):
        super().__init__()
        self.removed = []

    def flow_removed(self, dpid, message):
        self.removed.append((dpid, message))


def build():
    sim = Simulator()
    net = Network(sim)
    sw = net.add(PhysicalSwitch(sim, "s0", IDEAL_SWITCH))
    controller = OpenFlowController(sim, net)
    controller.register_switch(sw)
    app = controller.add_app(Collector())
    return sim, sw, controller, app


def test_idle_timeout_emits_flow_removed():
    sim, sw, controller, app = build()
    controller.flow_mod("s0", Match.for_flow(KEY), 100, [Output(1)], idle_timeout=2.0)
    sim.run(until=5.0)
    assert len(app.removed) == 1
    dpid, message = app.removed[0]
    assert dpid == "s0"
    assert message.match == Match.for_flow(KEY)
    assert len(sw.datapath.table(0)) == 0


def test_notify_flag_off_is_silent():
    sim, sw, controller, app = build()
    mod = FlowMod(match=Match.for_flow(KEY), priority=100, actions=[Output(1)],
                  idle_timeout=1.0, notify_removal=False)
    controller.datapaths["s0"].send(mod)
    sim.run(until=3.0)
    assert app.removed == []
    assert len(sw.datapath.table(0)) == 0  # still expired, just silently


def test_static_rules_never_notify():
    sim, sw, controller, app = build()
    sw.install_static(Match.for_flow(KEY), 100, [Output(1)], idle_timeout=1.0)
    sim.run(until=3.0)
    assert app.removed == []


def test_dead_switch_emits_nothing():
    sim, sw, controller, app = build()
    controller.flow_mod("s0", Match.for_flow(KEY), 100, [Output(1)], idle_timeout=1.0)
    sim.schedule(0.5, sw.fail)
    sim.run(until=5.0)
    assert app.removed == []


def test_scotch_retires_flow_state_after_rules_expire():
    dep = build_deployment(seed=41)
    sim = dep.sim
    client = NewFlowSource(sim, dep.client, dep.servers[0].ip, rate_fps=50.0)
    client.start(at=0.5, stop_at=3.0)
    sim.run(until=3.5)
    app = dep.scotch
    peak = len(app.flow_db)
    assert peak > 100
    # All flows were single packets; their 10 s idle rules expire.
    sim.run(until=20.0)
    assert app.flows_retired > 0
    assert len(app.flow_db) < peak * 0.1


def test_scotch_db_bounded_under_long_flood():
    dep = build_deployment(seed=41)
    sim = dep.sim
    flood = SpoofedFlood(sim, dep.attacker, dep.servers[0].ip, rate_fps=1500.0)
    flood.start(at=0.5, stop_at=28.0)
    sim.run(until=30.0)
    app = dep.scotch
    # ~41k flows offered; retirement keeps the live DB around the last
    # idle-timeout window's worth, not the whole history.
    assert app.flows_retired > 10_000
    assert len(app.flow_db) < 25_000
