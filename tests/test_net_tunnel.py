"""Tests for tunnels over the physical fabric."""

import pytest

from repro.net.host import Host
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.net.tunnel import TUNNEL_RULE_PRIORITY, TunnelFabric
from repro.sim.engine import Simulator
from repro.switch.actions import GotoTable, Output, PopMpls
from repro.switch.profiles import HP_PROCURVE_6600
from repro.switch.switch import PhysicalSwitch, VSwitch


def build():
    sim = Simulator()
    net = Network(sim)
    for name in ("s0", "s1", "s2"):
        net.add(PhysicalSwitch(sim, name))
    net.add(VSwitch(sim, "v0"))
    net.link("s0", "s1")
    net.link("s1", "s2")
    net.link("v0", "s2")
    return sim, net, TunnelFabric(net)


def test_create_builds_transit_rules():
    sim, net, fabric = build()
    tunnel = fabric.create("s0", "v0")
    # Path: s0 -> s1 -> s2 -> v0; transit rules at s1 and s2.
    for transit in ("s1", "s2"):
        entries = net[transit].datapath.table(0).entries()
        labels = [e.match.fields.get("mpls_label") for e in entries]
        assert tunnel.tunnel_id in labels
        assert all(e.priority == TUNNEL_RULE_PRIORITY for e in entries)


def test_terminal_rule_pops_and_continues_pipeline():
    sim, net, fabric = build()
    tunnel = fabric.create("s0", "v0", terminal_pops=2)
    entries = net["v0"].datapath.table(0).entries()
    terminal = [e for e in entries if e.match.fields.get("mpls_label") == tunnel.tunnel_id]
    assert len(terminal) == 1
    actions = terminal[0].actions
    assert actions[:2] == [PopMpls(), PopMpls()]
    assert actions[2] == GotoTable(1)


def test_terminal_extra_actions_override_goto():
    sim, net, fabric = build()
    tunnel = fabric.create("s0", "v0", terminal_pops=1, terminal_extra_actions=[Output(9)])
    entries = net["v0"].datapath.table(0).entries()
    terminal = [e for e in entries if e.match.fields.get("mpls_label") == tunnel.tunnel_id]
    assert terminal[0].actions == [PopMpls(), Output(9)]


def test_idempotent_per_signature_distinct_otherwise():
    sim, net, fabric = build()
    t1 = fabric.create("s0", "v0", terminal_pops=2)
    t2 = fabric.create("s0", "v0", terminal_pops=2)
    t3 = fabric.create("s0", "v0", terminal_pops=1)
    assert t1 is t2
    assert t3.tunnel_id != t1.tunnel_id


def test_between_returns_all_matching_tunnels():
    sim, net, fabric = build()
    t1 = fabric.create("s0", "v0", terminal_pops=2)
    t2 = fabric.create("s0", "v0", terminal_pops=1)
    found = fabric.between("s0", "v0")
    assert {t.tunnel_id for t in found} == {t1.tunnel_id, t2.tunnel_id}


def test_unique_labels():
    sim, net, fabric = build()
    t1 = fabric.create("s0", "v0")
    t2 = fabric.create("s0", "s2")
    assert t1.tunnel_id != t2.tunnel_id


def test_end_to_end_packet_traversal():
    """A packet entering the tunnel at s0 must surface decapsulated at v0
    and continue the pipeline there (miss -> Packet-In)."""
    sim, net, fabric = build()
    tunnel = fabric.create("s0", "v0", terminal_pops=1)
    packet = Packet("10.0.0.1", "10.0.0.2", src_port=1, dst_port=2)
    net["s0"].datapath.execute_actions(packet, tunnel.entry_actions(net), in_port=1)
    sim.run()
    v0 = net["v0"]
    assert v0.ofa.packet_ins_sent + v0.ofa.packet_in_server.backlog() >= 1 or v0.datapath.punted == 1
    assert packet.encap == []
    assert packet.popped_labels == [tunnel.tunnel_id]
    assert "v0" in packet.hops


def test_tunnel_to_host_leaves_encap_for_nic():
    sim, net, fabric = build()
    host = net.add(Host(sim, "h", "10.9.9.9"))
    net.link("h", "s2")
    tunnel = fabric.create("s0", "h", terminal_pops=0)
    packet = Packet("10.0.0.1", "10.9.9.9")
    net["s0"].datapath.execute_actions(packet, tunnel.entry_actions(net), in_port=1)
    sim.run()
    # The host NIC strips residual encapsulation.
    assert host.recv_tap.total_packets == 1
    assert packet.encap == []


def test_transit_through_non_tunnel_switch_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add(PhysicalSwitch(sim, "s0"))
    net.add(PhysicalSwitch(sim, "old", HP_PROCURVE_6600))  # no tunnel support
    net.add(VSwitch(sim, "v0"))
    net.link("s0", "old")
    net.link("old", "v0")
    fabric = TunnelFabric(net)
    with pytest.raises(ValueError):
        fabric.create("s0", "v0")


def test_same_node_endpoints_rejected():
    sim, net, fabric = build()
    with pytest.raises(ValueError):
        fabric.create("s0", "s0")


def test_tunnel_path_hops():
    sim, net, fabric = build()
    tunnel = fabric.create("s0", "v0")
    assert len(tunnel.path) - 1 == 3
