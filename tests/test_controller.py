"""Tests for the controller framework and the reactive baseline app."""

import pytest

from repro.controller.base_app import BaseApp
from repro.controller.controller import OpenFlowController
from repro.controller.stats_service import StatsPoller
from repro.core.baselines import ReactiveForwardingApp
from repro.net.flow import FlowKey, FlowSpec
from repro.net.host import Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.profiles import IDEAL_SWITCH
from repro.switch.switch import PhysicalSwitch


class RecordingApp(BaseApp):
    def __init__(self):
        super().__init__()
        self.events = []

    def packet_in(self, dpid, message):
        self.events.append(("packet_in", dpid))

    def stats_reply(self, dpid, message):
        self.events.append(("stats", dpid))

    def echo_reply(self, dpid, message):
        self.events.append(("echo", dpid))

    def barrier_reply(self, dpid, message):
        self.events.append(("barrier", dpid))


def build(n_switches=1, profile=IDEAL_SWITCH, hosts=()):
    sim = Simulator()
    net = Network(sim)
    controller = OpenFlowController(sim, net)
    switches = []
    for i in range(n_switches):
        sw = net.add(PhysicalSwitch(sim, f"s{i}", profile))
        controller.register_switch(sw)
        switches.append(sw)
    for i in range(n_switches - 1):
        net.link(f"s{i}", f"s{i+1}")
    host_objs = []
    for name, ip, attach in hosts:
        host = net.add(Host(sim, name, ip))
        net.link(name, attach)
        host_objs.append(host)
    return sim, net, controller, switches, host_objs


def test_duplicate_registration_rejected():
    sim, net, controller, switches, _ = build()
    with pytest.raises(ValueError):
        controller.register_switch(switches[0])


def test_event_dispatch_to_apps():
    sim, net, controller, (sw,), _ = build()
    app = controller.add_app(RecordingApp())
    sw.receive_packet = None
    controller.echo("s0")
    controller.request_flow_stats("s0")
    sim.run()
    kinds = [kind for kind, _ in app.events]
    assert "echo" in kinds and "stats" in kinds


def test_flow_mod_helper_installs_rule():
    from repro.switch.actions import Output
    from repro.switch.match import Match

    sim, net, controller, (sw,), _ = build()
    controller.flow_mod("s0", Match(dst_ip="9.9.9.9"), 10, [Output(1)])
    sim.run()
    assert len(sw.datapath.table(0)) == 1


def test_packet_out_helper():
    from repro.net.packet import Packet
    from repro.switch.actions import Output

    sim, net, controller, (sw,), _ = build()
    controller.packet_out("s0", Packet("1.1.1.1", "2.2.2.2"), [Output(77)])
    sim.run()
    assert sw.datapath.dropped_no_route == 1


def test_reactive_app_single_switch_end_to_end():
    sim, net, controller, (sw,), hosts = build(
        hosts=[("client", "10.0.0.1", "s0"), ("server", "10.0.0.2", "s0")]
    )
    controller.add_app(ReactiveForwardingApp())
    client, server = hosts
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 80)
    client.start_flow(FlowSpec(key=key, start_time=0.1, size_packets=5, rate_pps=20.0))
    sim.run()
    assert server.recv_tap.flow(key).packets_received == 5


def test_reactive_app_multi_hop_converges():
    sim, net, controller, switches, hosts = build(
        n_switches=3,
        hosts=[("client", "10.0.0.1", "s0"), ("server", "10.0.0.2", "s2")],
    )
    app = controller.add_app(ReactiveForwardingApp())
    client, server = hosts
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 80)
    client.start_flow(FlowSpec(key=key, start_time=0.1, size_packets=20, rate_pps=50.0))
    sim.run()
    # All packets eventually delivered (early ones may cascade Packet-Ins).
    assert server.recv_tap.flow(key).packets_received >= 18
    # Rules present along the path.
    for sw in switches:
        assert len(sw.datapath.table(0)) >= 1


def test_reactive_app_unroutable_counted():
    from repro.net.packet import Packet

    sim, net, controller, (sw,), hosts = build(
        hosts=[("client", "10.0.0.1", "s0")]
    )
    app = controller.add_app(ReactiveForwardingApp())
    hosts[0].send(Packet("10.0.0.1", "99.99.99.99"))
    sim.run()
    assert app.unroutable == 1


def test_stats_poller_polls_targets():
    sim, net, controller, (sw,), _ = build()
    app = controller.add_app(RecordingApp())
    poller = StatsPoller(controller, targets=lambda: ["s0"], interval=0.5)
    poller.start()
    sim.schedule(2.2, poller.stop)
    sim.run(until=4.0)
    stats_events = [e for e in app.events if e[0] == "stats"]
    assert len(stats_events) == 4
    assert poller.polls_sent == 4


def test_stats_poller_validates_interval():
    sim, net, controller, _, _ = build()
    with pytest.raises(ValueError):
        StatsPoller(controller, targets=lambda: [], interval=0)
