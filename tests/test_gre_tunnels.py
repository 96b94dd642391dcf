"""Tests for GRE tunnel mode (§4.1: "GRE, MPLS, MAC-in-MAC...")."""

import pytest

from repro.core.config import ScotchConfig
from repro.net.packet import Packet
from repro.net.tap import client_flow_failure_fraction
from repro.net.topology import Network
from repro.net.tunnel import GRE, MPLS, TunnelFabric
from repro.sim.engine import Simulator
from repro.switch.actions import GotoTable, PopGre, PopMpls, SetGreKey
from repro.switch.switch import PhysicalSwitch, VSwitch
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


def build_line():
    sim = Simulator()
    net = Network(sim)
    for name in ("s0", "s1"):
        net.add(PhysicalSwitch(sim, name))
    net.add(VSwitch(sim, "v0"))
    net.link("s0", "s1")
    net.link("s1", "v0")
    return sim, net, TunnelFabric(net)


def test_gre_entry_actions_set_key():
    sim, net, fabric = build_line()
    tunnel = fabric.create("s0", "v0", kind=GRE)
    actions = tunnel.entry_actions(net)
    assert actions[0] == SetGreKey(tunnel.tunnel_id)


def test_gre_transit_rules_match_key():
    sim, net, fabric = build_line()
    tunnel = fabric.create("s0", "v0", kind=GRE)
    entries = net["s1"].datapath.table(0).entries()
    keys = [e.match.fields.get("gre_key") for e in entries]
    assert tunnel.tunnel_id in keys


def test_gre_terminal_pops_gre_then_mpls():
    sim, net, fabric = build_line()
    tunnel = fabric.create("s0", "v0", kind=GRE, terminal_pops=2)
    terminal = [
        e for e in net["v0"].datapath.table(0).entries()
        if e.match.fields.get("gre_key") == tunnel.tunnel_id
    ]
    assert terminal[0].actions[:2] == [PopGre(), PopMpls()]
    assert terminal[0].actions[2] == GotoTable(1)


def test_gre_and_mpls_tunnels_are_distinct():
    sim, net, fabric = build_line()
    a = fabric.create("s0", "v0", kind=GRE)
    b = fabric.create("s0", "v0", kind=MPLS)
    assert a.tunnel_id != b.tunnel_id


def test_unknown_kind_rejected():
    sim, net, fabric = build_line()
    with pytest.raises(ValueError):
        fabric.create("s0", "v0", kind="vxlan")


def test_gre_end_to_end_traversal_records_key():
    sim, net, fabric = build_line()
    tunnel = fabric.create("s0", "v0", kind=GRE, terminal_pops=1)
    packet = Packet("1.1.1.1", "2.2.2.2", src_port=1, dst_port=2)
    net["s0"].datapath.execute_actions(packet, tunnel.entry_actions(net), in_port=1)
    sim.run(until=1.0)
    assert packet.popped_labels == [tunnel.tunnel_id]
    assert packet.encap == []


def test_scotch_protects_identically_over_gre():
    """The whole Scotch machinery — activation, LB, overlay routing,
    Packet-In attribution — works unchanged with GRE encapsulation."""
    config = ScotchConfig(tunnel_kind="gre")
    dep = build_deployment(seed=1, config=config)
    sim = dep.sim
    server_ip = dep.servers[0].ip
    client = NewFlowSource(sim, dep.client, server_ip, rate_fps=100.0)
    attack = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=2000.0)
    client.start(at=0.5, stop_at=12.0)
    attack.start(at=2.0, stop_at=12.0)
    sim.run(until=14.0)
    assert dep.scotch.activations == 1
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=4.0, end=11.0
    )
    assert failure < 0.02
    counts = dep.scotch.flow_db.counts()
    assert counts.get("overlay", 0) > 1000


def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ScotchConfig(tunnel_kind="vxlan")
