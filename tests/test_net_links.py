"""Tests for links, ports, and the base node."""

import pytest

import repro.net.links as links_module
from repro.net.links import DirectedLink, connect
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((self.sim.now, packet, in_port))


def make_packet(size=1000, count=1):
    return Packet("10.0.0.1", "10.0.0.2", size=size, count=count)


def test_connect_creates_ports_both_sides():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    port_a, port_b = connect(sim, a, b)
    assert port_a.node is a and port_b.node is b
    assert a.port_to("b") is port_a
    assert b.port_to("a") is port_b


def test_delivery_delay_is_serialization_plus_propagation():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    port_a, _ = connect(sim, a, b, rate_bps=8000.0, delay=0.5)
    port_a.send(make_packet(size=1000))  # 8000 bits / 8000 bps = 1 s
    sim.run()
    time, _, in_port = b.received[0]
    assert time == pytest.approx(1.5)


def test_queueing_serializes_back_to_back_packets():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    port_a, _ = connect(sim, a, b, rate_bps=8000.0, delay=0.0)
    port_a.send(make_packet(size=1000))
    port_a.send(make_packet(size=1000))
    sim.run()
    times = [t for t, _, _ in b.received]
    assert times == pytest.approx([1.0, 2.0])


def test_drop_tail_when_queue_full(monkeypatch):
    monkeypatch.setattr(links_module, "QUEUE_PACKETS", 2)
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    port_a, _ = connect(sim, a, b, rate_bps=8.0, delay=0.0)
    for _ in range(5):
        port_a.send(make_packet(size=1))
    sim.run(until=0.1)
    link = port_a.link
    # One in service + two queued; the rest dropped.
    assert link.dropped == 2


def test_count_aware_serialization():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    port_a, _ = connect(sim, a, b, rate_bps=8000.0, delay=0.0)
    port_a.send(make_packet(size=1000, count=3))
    sim.run()
    assert b.received[0][0] == pytest.approx(3.0)


def test_bidirectional_traffic():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    port_a, port_b = connect(sim, a, b, rate_bps=1e9, delay=0.01)
    port_a.send(make_packet())
    port_b.send(make_packet())
    sim.run()
    assert len(a.received) == 1
    assert len(b.received) == 1


def test_unattached_port_drops_silently():
    sim = Simulator()
    a = Sink(sim, "a")
    port = a.allocate_port()
    port.send(make_packet())  # no exception
    sim.run()


def test_link_validation():
    sim = Simulator()
    b = Sink(sim, "b")
    with pytest.raises(ValueError):
        DirectedLink(sim, rate_bps=0, delay=0, dst_node=b, dst_port_no=1)
    with pytest.raises(ValueError):
        DirectedLink(sim, rate_bps=1, delay=-1, dst_node=b, dst_port_no=1)


def test_node_port_numbering():
    sim = Simulator()
    node = Sink(sim, "n")
    p1 = node.allocate_port()
    p2 = node.allocate_port()
    assert (p1.port_no, p2.port_no) == (1, 2)
    assert node.port(2) is p2
