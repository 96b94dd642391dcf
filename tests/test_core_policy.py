"""Tests for middlebox policy consistency (§5.4)."""

import pytest

from repro.core.config import PRIORITY_PHYSICAL_FLOW
from repro.core.overlay import OverlayError, ScotchOverlay
from repro.core.policy import PRIORITY_MB_GREEN, Policy, PolicyRegistry
from repro.net.flow import FlowKey
from repro.net.host import Host
from repro.net.middlebox import Firewall
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.actions import Output, PopMpls, PushMpls
from repro.switch.switch import PhysicalSwitch, VSwitch

KEY = FlowKey("10.20.0.1", "10.0.0.10", 6, 5, 80)


def build():
    sim = Simulator()
    net = Network(sim)
    for name in ("edge", "spine", "tor"):
        net.add(PhysicalSwitch(sim, name))
    net.link("edge", "spine")
    net.link("spine", "tor")
    net.add(VSwitch(sim, "mv0"))
    net.add(VSwitch(sim, "mv1"))
    net.link("mv0", "tor")
    net.link("mv1", "edge")
    net.add(Host(sim, "server", "10.0.0.10"))
    net.link("server", "tor")
    net.add(Firewall(sim, "fw"))
    net.link("edge", "fw")
    net.link("fw", "spine")

    overlay = ScotchOverlay(net)
    overlay.add_mesh_vswitch("mv0")
    overlay.add_mesh_vswitch("mv1")
    overlay.set_host_delivery("server", None, "mv0")
    overlay.register_switch("edge")
    registry = PolicyRegistry(net, overlay)
    return sim, net, overlay, registry


def test_attach_installs_green_plumbing():
    sim, net, overlay, registry = build()
    attachment = registry.attach_middlebox("fw", upstream="edge", downstream="spine")
    # S_U terminal rules output into the middlebox port.
    mb_port = net.port_between("edge", "fw")
    for vswitch in ("mv0", "mv1"):
        tunnel = attachment.in_tunnels[vswitch]
        terminal = [
            e for e in net["edge"].datapath.table(0).entries()
            if e.match.fields.get("mpls_label") == tunnel.tunnel_id
        ]
        assert terminal[0].actions == [PopMpls(), Output(mb_port)]
    # S_D green rule matches the middlebox-facing port and re-encapsulates.
    sd_port = net.port_between("spine", "fw")
    green = [
        e for e in net["spine"].datapath.table(0).entries()
        if e.match.fields.get("in_port") == sd_port
    ]
    assert len(green) == 1
    assert green[0].priority == PRIORITY_MB_GREEN
    assert isinstance(green[0].actions[0], PushMpls)
    assert green[0].actions[0].label == attachment.out_tunnel.tunnel_id


def test_middlebox_excluded_from_plain_routing():
    sim, net, overlay, registry = build()
    registry.attach_middlebox("fw", upstream="edge", downstream="spine")
    # fw would be a shortcut edge<->spine, but must not be transit.
    assert registry.physical_path("edge", "server", []) == ["edge", "spine", "tor", "server"]


def test_physical_path_with_chain_goes_through_instance():
    sim, net, overlay, registry = build()
    registry.attach_middlebox("fw", upstream="edge", downstream="spine")
    path = registry.physical_path("edge", "server", ["fw"])
    assert path == ["edge", "fw", "spine", "tor", "server"]


def test_chain_for_uses_first_matching_policy():
    sim, net, overlay, registry = build()
    registry.attach_middlebox("fw", upstream="edge", downstream="spine")
    registry.add_policy(Policy("web", lambda k: k.dst_port == 80, ["fw"]))
    registry.add_policy(Policy("fallback", lambda k: True, []))
    assert registry.chain_for(KEY) == ["fw"]
    assert registry.chain_for(FlowKey("a", "b", 6, 1, 443)) == []


def test_policy_with_unattached_middlebox_rejected():
    sim, net, overlay, registry = build()
    with pytest.raises(OverlayError):
        registry.add_policy(Policy("bad", lambda k: True, ["ghost"]))


def test_overlay_route_with_chain_rule_shape():
    sim, net, overlay, registry = build()
    attachment = registry.attach_middlebox("fw", upstream="edge", downstream="spine")
    assert attachment.aggregation_vswitch == "mv0"
    rules = registry.overlay_route(KEY, "mv1", "server", ["fw"])
    # Last-hop-first; forward order: mv1 (entry, into FW) then mv0
    # (post-FW, label-qualified, delivers).
    assert [r.dpid for r in rules] == ["mv0", "mv1"]
    entry = rules[-1]
    assert entry.priority == PRIORITY_PHYSICAL_FLOW
    assert entry.actions[0].label == attachment.in_tunnels["mv1"].tunnel_id
    post = rules[0]
    assert post.priority == PRIORITY_PHYSICAL_FLOW + 1
    assert post.match.fields["mpls_label"] == attachment.out_tunnel.tunnel_id
    assert post.actions[0] == PopMpls()


def test_overlay_route_entry_equals_aggregation():
    """The tricky case: entry vSwitch == aggregation vSwitch.  Fresh
    arrivals hit the into-middlebox rule; post-middlebox (labelled)
    arrivals hit the higher-priority qualified rule."""
    sim, net, overlay, registry = build()
    attachment = registry.attach_middlebox("fw", upstream="edge", downstream="spine")
    assert attachment.aggregation_vswitch == "mv0"
    rules = registry.overlay_route(KEY, "mv0", "server", ["fw"])
    assert [r.dpid for r in rules] == ["mv0", "mv0"]
    priorities = sorted(r.priority for r in rules)
    assert priorities == [PRIORITY_PHYSICAL_FLOW, PRIORITY_PHYSICAL_FLOW + 1]
    # The two rules have different matches, so both can coexist.
    matches = {r.match.key() for r in rules}
    assert len(matches) == 2


def test_overlay_route_without_chain_delegates():
    sim, net, overlay, registry = build()
    rules = registry.overlay_route(KEY, "mv0", "server", [])
    assert len(rules) == 1
    assert rules[0].dpid == "mv0"
