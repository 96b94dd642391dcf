"""Bidirectional traffic: reverse (ACK) flows through the same machinery."""

import pytest

from repro.controller.controller import OpenFlowController
from repro.core.baselines import ReactiveForwardingApp
from repro.net.flow import FlowKey, FlowSpec
from repro.net.host import EchoServer, Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.profiles import IDEAL_SWITCH
from repro.switch.switch import PhysicalSwitch
from repro.testbed.deployment import build_deployment
from repro.traffic import SpoofedFlood


def test_echo_server_acks_each_train():
    sim = Simulator()
    net = Network(sim)
    client = net.add(Host(sim, "c", "10.0.0.1"))
    server = net.add(EchoServer(sim, "s", "10.0.0.2"))
    net.link("c", "s")
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 80)
    client.start_flow(FlowSpec(key=key, start_time=0.1, size_packets=6, rate_pps=100.0))
    sim.run()
    assert server.acks_sent == 6
    reverse = client.recv_tap.flow(key.reversed())
    assert reverse.packets_received == 6


def test_first_ack_is_syn_rest_data():
    sim = Simulator()
    net = Network(sim)
    client = net.add(Host(sim, "c", "10.0.0.1"))
    server = net.add(EchoServer(sim, "s", "10.0.0.2"))
    net.link("c", "s")
    flags = []
    client.on_receive = lambda p: flags.append(p.tcp_flag)
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 80)
    client.start_flow(FlowSpec(key=key, start_time=0.1, size_packets=4, rate_pps=100.0))
    sim.run()
    assert flags[0] == "SYN"
    assert all(f == "DATA" for f in flags[1:])


def test_echo_servers_do_not_ack_acks():
    sim = Simulator()
    net = Network(sim)
    a = net.add(EchoServer(sim, "a", "10.0.0.1"))
    b = net.add(EchoServer(sim, "b", "10.0.0.2"))
    net.link("a", "b")
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 80)
    a.start_flow(FlowSpec(key=key, start_time=0.1, size_packets=3, rate_pps=100.0))
    sim.run(until=10.0)
    assert b.acks_sent == 3
    assert a.acks_sent == 0  # no ack storm


def test_reverse_flow_installed_reactively_across_switch():
    sim = Simulator()
    net = Network(sim)
    sw = net.add(PhysicalSwitch(sim, "sw", IDEAL_SWITCH))
    client = net.add(Host(sim, "c", "10.0.0.1"))
    server = net.add(EchoServer(sim, "s", "10.0.0.2"))
    net.link("c", "sw")
    net.link("s", "sw")
    controller = OpenFlowController(sim, net)
    controller.register_switch(sw)
    controller.add_app(ReactiveForwardingApp())
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 80)
    client.start_flow(FlowSpec(key=key, start_time=0.1, size_packets=10, rate_pps=50.0))
    sim.run(until=2.0)
    # The reverse direction got its own rule at the switch.
    reverse_rules = [
        e for e in sw.datapath.table(0).entries()
        if e.match.has_five_tuple and e.match.five_tuple_key() == tuple(key.reversed())
    ]
    assert reverse_rules
    assert client.recv_tap.flow(key.reversed()).packets_received >= 8


@pytest.mark.slow
def test_bidirectional_under_scotch_protection():
    """Request/response traffic survives a flood: forward flows via the
    overlay and their ACK flows (new flows at an *uncongested* switch)
    reactively — both directions deliver."""
    dep = build_deployment(seed=91)
    sim = dep.sim
    # Swap the first server for an echo server.
    server = dep.servers[0]
    echo = EchoServer(sim, "echo0", "10.0.9.9")
    dep.network.add(echo)
    dep.network.link("echo0", dep.host_vswitches[0].name, 1e9)
    dep.overlay.set_host_delivery("echo0", dep.host_vswitches[0].name, "mv0_0")
    dep.scotch.router.refresh_hosts()

    flood = SpoofedFlood(sim, dep.attacker, echo.ip, rate_fps=1500.0)
    flood.start(at=0.5, stop_at=14.0)
    # Request/response flows must carry the client's *real* source
    # address (ACKs have to route back), so vary ports, not sources.
    n_flows = 240
    for index in range(n_flows):
        key = FlowKey(dep.client.ip, echo.ip, 6, 2000 + index, 80)
        dep.client.start_flow(FlowSpec(
            key=key, start_time=4.0 + index * (8.0 / n_flows),
            size_packets=5, rate_pps=50.0,
        ))
    sim.run(until=16.0)

    # Forward direction delivered...
    sent = {k for k, r in dep.client.sent_tap.records.items()
            if r.packets_sent and k.src_ip == dep.client.ip}
    forward_ok = sum(1 for k in sent if (rec := echo.recv_tap.flow(k)) and rec.packets_received >= 4)
    assert forward_ok / len(sent) > 0.9
    # ... and so were the ACK (reverse) flows back to the client.
    acked = sum(
        1 for k in sent
        if (rec := dep.client.recv_tap.flow(k.reversed())) and rec.packets_received >= 3
    )
    assert acked / len(sent) > 0.9
