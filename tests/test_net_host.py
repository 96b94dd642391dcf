"""Tests for hosts and flow generation."""

import pytest

from repro.net.flow import FlowKey, FlowSpec
from repro.net.host import Host
from repro.net.packet import MplsHeader, Packet
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.actions import Output
from repro.switch.match import Match
from repro.switch.switch import PhysicalSwitch


def build_pair():
    sim = Simulator()
    net = Network(sim)
    a = net.add(Host(sim, "a", "10.0.0.1"))
    b = net.add(Host(sim, "b", "10.0.0.2"))
    net.link("a", "b", rate_bps=1e9, delay=1e-6)
    return sim, a, b


def test_send_records_in_sent_tap():
    sim, a, b = build_pair()
    a.send(Packet("10.0.0.1", "10.0.0.2", src_port=1, dst_port=2))
    sim.run()
    assert a.sent_tap.total_packets == 0  # sent tap records sends, not receives
    assert len(a.sent_tap.records) == 1
    assert b.recv_tap.total_packets == 1


def test_receive_strips_encap():
    sim, a, b = build_pair()
    packet = Packet("10.0.0.1", "10.0.0.2")
    packet.push(MplsHeader(5))
    a.send(packet)
    sim.run()
    assert packet.encap == []


def test_on_receive_callback():
    sim, a, b = build_pair()
    got = []
    b.on_receive = got.append
    a.send(Packet("10.0.0.1", "10.0.0.2"))
    sim.run()
    assert len(got) == 1


def test_single_packet_flow():
    sim, a, b = build_pair()
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 6)
    a.start_flow(FlowSpec(key=key, start_time=1.0))
    sim.run()
    record = b.recv_tap.flow(key)
    assert record.packets_received == 1


def test_multi_packet_flow_paced_at_rate():
    sim, a, b = build_pair()
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 6)
    a.start_flow(FlowSpec(key=key, start_time=0.0, size_packets=5, rate_pps=10.0))
    sim.run()
    record = b.recv_tap.flow(key)
    assert record.packets_received == 5
    # 4 follow-up packets at 10 pps -> last around t=0.4.
    assert record.last_received_at == pytest.approx(0.4, abs=0.01)


def test_batched_flow_delivers_full_size():
    sim, a, b = build_pair()
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 6)
    a.start_flow(FlowSpec(key=key, start_time=0.0, size_packets=103, rate_pps=1000.0, batch=10))
    sim.run()
    assert b.recv_tap.flow(key).packets_received == 103


def test_first_packet_is_syn_rest_data():
    sim, a, b = build_pair()
    flags = []
    b.on_receive = lambda p: flags.append(p.tcp_flag)
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 6)
    a.start_flow(FlowSpec(key=key, start_time=0.0, size_packets=3, rate_pps=100.0))
    sim.run()
    assert flags[0] == "SYN"
    assert all(f == "DATA" for f in flags[1:])


def test_nic_raises_without_link():
    sim = Simulator()
    host = Host(sim, "lonely", "10.0.0.9")
    with pytest.raises(RuntimeError):
        host.nic


def test_flow_through_switch_with_static_rule():
    sim = Simulator()
    net = Network(sim)
    a = net.add(Host(sim, "a", "10.0.0.1"))
    b = net.add(Host(sim, "b", "10.0.0.2"))
    sw = net.add(PhysicalSwitch(sim, "sw"))
    net.link("a", "sw")
    net.link("b", "sw")
    sw.install_static(Match(dst_ip="10.0.0.2"), priority=10,
                      actions=[Output(net.port_between("sw", "b"))])
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 1, 2)
    a.start_flow(FlowSpec(key=key, start_time=0.0, size_packets=4, rate_pps=100.0))
    sim.run()
    assert b.recv_tap.flow(key).packets_received == 4
