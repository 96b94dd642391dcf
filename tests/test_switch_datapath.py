"""Tests for the data-plane pipeline."""

import pytest

import repro.switch.datapath as datapath_module
from repro.net.flow import FlowKey
from repro.net.links import DirectedLink
from repro.openflow.messages import FlowMod
from repro.net.packet import MplsHeader, Packet
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.actions import (
    Drop,
    GotoTable,
    Group,
    Output,
    PopMpls,
    PushMpls,
)
from repro.switch.datapath import INGRESS_BUFFER
from repro.switch.group_table import Bucket, GroupEntry
from repro.switch.match import Match
from repro.switch.profiles import IDEAL_SWITCH, PICA8_PRONTO_3780
from repro.switch.switch import PhysicalSwitch
from repro.net.host import Host

KEY = FlowKey("1.1.1.1", "2.2.2.2", 6, 10, 80)


def build(profile=IDEAL_SWITCH):
    sim = Simulator()
    net = Network(sim)
    sw = net.add(PhysicalSwitch(sim, "sw", profile))
    host = net.add(Host(sim, "h", "2.2.2.2"))
    net.link("sw", "h")
    return sim, net, sw, host


def packet_for(key=KEY):
    return Packet(key.src_ip, key.dst_ip, proto=key.proto,
                  src_port=key.src_port, dst_port=key.dst_port)


def test_miss_punts_to_controller_by_default():
    sim, net, sw, host = build()
    sw.receive(packet_for(), in_port=1)
    sim.run()
    assert sw.datapath.punted == 1


def test_output_action_forwards():
    sim, net, sw, host = build()
    out = net.port_between("sw", "h")
    sw.install_static(Match.for_flow(KEY), 100, [Output(out)])
    sw.receive(packet_for(), in_port=1)
    sim.run()
    assert host.recv_tap.total_packets == 1


def test_goto_table_continues_pipeline():
    sim, net, sw, host = build()
    out = net.port_between("sw", "h")
    sw.install_static(Match.any(), 1, [GotoTable(2)], table_id=0)
    sw.install_static(Match.for_flow(KEY), 1, [Output(out)], table_id=2)
    sw.receive(packet_for(), in_port=1)
    sim.run()
    assert host.recv_tap.total_packets == 1


def test_goto_loop_detected():
    sim, net, sw, host = build()
    sw.install_static(Match.any(), 1, [GotoTable(1)], table_id=0)
    sw.install_static(Match.any(), 1, [GotoTable(0)], table_id=1)
    sw.receive(packet_for(), in_port=1)
    with pytest.raises(RuntimeError):
        sim.run()


def test_push_pop_mpls_actions():
    sim, net, sw, host = build()
    out = net.port_between("sw", "h")
    sw.install_static(Match.for_flow(KEY), 100, [PushMpls(42), Output(out)])
    packet = packet_for()
    sw.receive(packet, in_port=1)
    sim.run()
    # The host strips encapsulation, but records pops are visible via tap.
    assert host.recv_tap.total_packets == 1


def test_pop_mpls_records_label():
    sim, net, sw, host = build()
    sw.install_static(Match(mpls_label=42), 100, [PopMpls(), GotoTable(1)])
    packet = packet_for()
    packet.push(MplsHeader(42))
    sw.receive(packet, in_port=1)
    sim.run()
    assert packet.popped_labels == [42]
    assert sw.datapath.punted == 1  # continued to table 1, missed


def test_drop_action():
    sim, net, sw, host = build()
    sw.install_static(Match.any(), 1, [Drop()])
    sw.receive(packet_for(), in_port=1)
    sim.run()
    assert sw.datapath.dropped_policy == 1


def test_group_action_executes_bucket():
    sim, net, sw, host = build()
    out = net.port_between("sw", "h")
    sw.add_static_group(GroupEntry(1, [Bucket([PushMpls(5), Output(out)])]))
    sw.install_static(Match.any(), 1, [Group(1)])
    sw.receive(packet_for(), in_port=1)
    sim.run()
    assert host.recv_tap.total_packets == 1  # only the bucket outputs


def test_missing_group_drops():
    sim, net, sw, host = build()
    sw.install_static(Match.any(), 1, [Group(99)])
    sw.receive(packet_for(), in_port=1)
    sim.run()
    assert sw.datapath.dropped_no_route == 1


def test_output_to_missing_port_drops():
    sim, net, sw, host = build()
    sw.install_static(Match.any(), 1, [Output(250)])
    sw.receive(packet_for(), in_port=1)
    sim.run()
    assert sw.datapath.dropped_no_route == 1


def test_ingress_buffer_overflow_drops():
    sim, net, sw, host = build(profile=PICA8_PRONTO_3780.variant(datapath_pps=1.0))
    for _ in range(INGRESS_BUFFER + 50):
        sw.receive(packet_for(), in_port=1)
    assert sw.datapath.dropped_no_buffer >= 49


def test_dead_switch_ignores_traffic():
    sim, net, sw, host = build()
    sw.fail()
    sw.receive(packet_for(), in_port=1)
    sim.run()
    assert sw.datapath.processed == 0
    sw.recover()
    sw.receive(packet_for(), in_port=1)
    sim.run()
    assert sw.datapath.processed == 1


def test_forwarding_budget_paces_throughput():
    sim, net, sw, host = build(profile=IDEAL_SWITCH.variant(datapath_pps=10.0))
    out = net.port_between("sw", "h")
    sw.install_static(Match.for_flow(KEY), 100, [Output(out)])
    for _ in range(5):
        sw.receive(packet_for(), in_port=1)
    sim.run()
    # 5 packets at 10 pps -> last leaves the pipeline at ~0.5 s.
    assert sim.now >= 0.5


def test_hop_recorded():
    sim, net, sw, host = build()
    packet = packet_for()
    sw.receive(packet, in_port=1)
    sim.run()
    assert "sw" in packet.hops


def test_direct_submit_on_a_dead_switch_drops():
    """Liveness is checked in one place — admission — so the datapath's
    own entry point drops on a crashed switch just as receive() does."""
    sim, net, sw, host = build()
    sw.fail()
    sw.datapath.submit(packet_for(), in_port=1)
    sim.run()
    assert sw.datapath.processed == 0 and sw.datapath.punted == 0


# ----------------------------------------------------------------------
# One event per packet-hop (see the module docstring of switch/datapath.py)
# ----------------------------------------------------------------------
def build_chain(monkeypatch, n, profile=PICA8_PRONTO_3780):
    """a -> s1 -> ... -> sN -> b with a static rule for KEY at every hop."""
    # No expiry sweep within the run: the budget below counts packet
    # events only.
    monkeypatch.setattr(PhysicalSwitch, "EXPIRY_SWEEP_INTERVAL", 1e9)
    sim = Simulator()
    net = Network(sim)
    a = net.add(Host(sim, "a", "1.1.1.1"))
    names = [f"s{i}" for i in range(1, n + 1)]
    switches = [net.add(PhysicalSwitch(sim, name, profile)) for name in names]
    b = net.add(Host(sim, "b", "2.2.2.2"))
    path = ["a"] + names + ["b"]
    for left, right in zip(path, path[1:]):
        net.link(left, right)
    for sw, nxt in zip(switches, path[2:]):
        sw.install_static(Match.for_flow(KEY), 100,
                          [Output(net.port_between(sw.name, nxt))])
    return sim, a, switches, b


@pytest.mark.parametrize("hops", [1, 3, 6])
def test_idle_chain_fires_one_event_per_switch_hop(monkeypatch, hops):
    """N datapath steps + the host's delivery: N + 1 events a packet."""
    sim, a, switches, b = build_chain(monkeypatch, hops)
    packets = 5
    for i in range(packets):
        sim.schedule_at(0.1 * (i + 1), lambda: a.send(packet_for()))
    sim.run()
    assert b.recv_tap.total_packets == packets
    assert all(sw.datapath.processed == packets for sw in switches)
    assert sim.events_fired == packets + packets * (hops + 1)  # + the sends


def test_degraded_hop_costs_exactly_one_more_event(monkeypatch):
    """A hop whose OFA is past the knee completes later than booked: one
    second event there, none anywhere else."""
    def run(past_knee):
        sim, a, switches, b = build_chain(monkeypatch, 3)
        middle = switches[1]
        if past_knee:
            # 40 ADDs in 10 ms: ~4000 rules/s attempted, knee is 1300/s
            for i in range(40):
                sim.schedule_at(0.5 + i * 0.00025, middle.ofa.handle_from_controller,
                                FlowMod(match=Match(dst_port=9000 + i), actions=[]))
        sim.schedule_at(0.6, lambda: a.send(packet_for()))
        sim.run(until=0.55)
        before = sim.events_fired
        sim.run(until=5.0)
        assert b.recv_tap.total_packets == 1
        return sim.events_fired - before

    idle_events = run(past_knee=False)
    degraded_events = run(past_knee=True)
    assert idle_events == 1 + 3 + 1  # send, three hops, host delivery
    assert degraded_events == idle_events + 1


def test_arrival_at_a_completion_instant_is_admitted_first(monkeypatch):
    """The tie rule: with the buffer exactly full at the instant a
    service completes, a train arriving at that same instant is dropped
    (admitted before the completion frees a slot)."""
    monkeypatch.setattr(datapath_module, "INGRESS_BUFFER", 2)
    sim, net, sw, host = build(profile=IDEAL_SWITCH.variant(
        datapath_pps=4.0, datapath_degraded_pps=4.0))
    # no serialization time: the train arrives at exactly 0.0 + 0.25
    feeder = DirectedLink(sim, rate_bps=float("inf"), delay=0.25, dst_node=sw,
                          dst_port_no=7)
    for _ in range(3):  # one in service until 0.25, two fill the buffer
        sw.receive(packet_for(), in_port=1)
    feeder.transmit(packet_for())
    sim.run()
    assert feeder.delivered == 1
    assert sw.datapath.dropped_no_buffer == 1
    assert sw.datapath.processed == 3
