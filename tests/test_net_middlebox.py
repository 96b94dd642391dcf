"""Tests for stateful middleboxes."""

import repro.net.middlebox as middlebox_module
from repro.net.flow import FlowKey
from repro.net.middlebox import Firewall, Middlebox
from repro.net.node import Node
from repro.net.packet import TCP_DATA, TCP_SYN, Packet
from repro.net.topology import Network
from repro.sim.engine import Simulator


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.packets = []

    def receive(self, packet, in_port):
        self.packets.append(packet)


def wire(sim, net, box):
    left = net.add(Sink(sim, "left"))
    right = net.add(Sink(sim, "right"))
    net.link("left", box.name)
    net.link(box.name, "right")
    return left, right


def syn(src="1.1.1.1", sport=10):
    return Packet(src, "2.2.2.2", src_port=sport, dst_port=80, tcp_flag=TCP_SYN)


def data(src="1.1.1.1", sport=10):
    return Packet(src, "2.2.2.2", src_port=sport, dst_port=80, tcp_flag=TCP_DATA)


def test_bump_in_the_wire_forwards_to_other_port():
    sim = Simulator()
    net = Network(sim)
    box = net.add(Middlebox(sim, "mb"))
    left, right = wire(sim, net, box)
    left.port_to("mb").send(syn())
    sim.run()
    assert len(right.packets) == 1
    right.port_to("mb").send(syn(src="9.9.9.9"))
    sim.run()
    assert len(left.packets) == 1


def test_firewall_admits_flow_seen_from_syn():
    sim = Simulator()
    net = Network(sim)
    fw = net.add(Firewall(sim, "fw"))
    left, right = wire(sim, net, fw)
    left.port_to("fw").send(syn())
    left.port_to("fw").send(data())
    sim.run()
    assert len(right.packets) == 2
    assert fw.rejected_unknown == 0


def test_firewall_drops_midflow_packets_of_unknown_flow():
    """The §5.4 motivation: a middlebox without pre-established context
    rejects mid-connection packets."""
    sim = Simulator()
    net = Network(sim)
    fw = net.add(Firewall(sim, "fw"))
    left, right = wire(sim, net, fw)
    left.port_to("fw").send(data())  # never saw the SYN
    sim.run()
    assert right.packets == []
    assert fw.rejected_unknown == 1


def test_firewall_admits_reverse_direction():
    sim = Simulator()
    net = Network(sim)
    fw = net.add(Firewall(sim, "fw"))
    left, right = wire(sim, net, fw)
    left.port_to("fw").send(syn())
    sim.run()
    reply = Packet("2.2.2.2", "1.1.1.1", src_port=80, dst_port=10, tcp_flag=TCP_DATA)
    right.port_to("fw").send(reply)
    sim.run()
    assert len(left.packets) == 1


def test_firewall_blocklist():
    sim = Simulator()
    net = Network(sim)
    fw = net.add(Firewall(sim, "fw"))
    left, right = wire(sim, net, fw)
    fw.blocklist.add("6.6.6.6")
    left.port_to("fw").send(syn(src="6.6.6.6"))
    sim.run()
    assert right.packets == []
    assert fw.rejected_blocked == 1


def test_firewall_knows():
    sim = Simulator()
    net = Network(sim)
    fw = net.add(Firewall(sim, "fw"))
    left, right = wire(sim, net, fw)
    key = FlowKey("1.1.1.1", "2.2.2.2", 6, 10, 80)
    assert not fw.knows(key)
    left.port_to("fw").send(syn())
    sim.run()
    assert fw.knows(key)
    assert fw.knows(key.reversed())


def test_processing_latency_applied(monkeypatch):
    monkeypatch.setattr(middlebox_module, "LATENCY", 0.25)
    sim = Simulator()
    net = Network(sim)
    box = net.add(Middlebox(sim, "mb"))
    left, right = wire(sim, net, box)
    times = []
    right.receive = lambda p, i: times.append(sim.now)
    left.port_to("mb").send(syn())
    sim.run()
    assert times[0] >= 0.25
