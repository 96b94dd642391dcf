"""Tests for overlay construction, activation rule sets, and routing."""

import pytest

from repro.core.config import (
    LB_TABLE,
    PRIORITY_LB,
    PRIORITY_SCOTCH_DEFAULT,
    SCOTCH_GROUP_ID,
    ScotchConfig,
)
from repro.core.overlay import OverlayError, ScotchOverlay
from repro.net.flow import FlowKey
from repro.net.host import Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.actions import GotoTable, PushMpls
from repro.switch.profiles import HP_PROCURVE_6600
from repro.switch.switch import PhysicalSwitch, VSwitch


def build(racks=2, backups=0):
    sim = Simulator()
    net = Network(sim)
    edge = net.add(PhysicalSwitch(sim, "edge"))
    spine = net.add(PhysicalSwitch(sim, "spine"))
    net.link("edge", "spine")
    overlay = ScotchOverlay(net, ScotchConfig())
    for rack in range(racks):
        net.add(PhysicalSwitch(sim, f"tor{rack}"))
        net.link(f"tor{rack}", "spine")
        net.add(VSwitch(sim, f"mv{rack}"))
        net.link(f"mv{rack}", f"tor{rack}")
        overlay.add_mesh_vswitch(f"mv{rack}")
        net.add(Host(sim, f"server{rack}", f"10.0.{rack}.10"))
        net.link(f"server{rack}", f"tor{rack}")
        overlay.set_host_delivery(f"server{rack}", None, f"mv{rack}")
    for index in range(backups):
        net.add(VSwitch(sim, f"bv{index}"))
        net.link(f"bv{index}", "spine")
        overlay.add_mesh_vswitch(f"bv{index}", backup=True)
    net.add(Host(sim, "client", "10.20.0.1"))
    net.link("client", "edge")
    return sim, net, overlay


KEY = FlowKey("10.20.0.1", "10.0.0.10", 6, 5, 80)


class TestConstruction:
    def test_mesh_is_fully_connected(self):
        _, _, overlay = build(racks=3)
        for a in overlay.mesh:
            for b in overlay.mesh:
                if a != b:
                    assert (a, b) in overlay.mesh_tunnels

    def test_duplicate_mesh_member_rejected(self):
        _, _, overlay = build()
        with pytest.raises(OverlayError):
            overlay.add_mesh_vswitch("mv0")

    def test_non_switch_mesh_member_rejected(self):
        _, net, overlay = build()
        with pytest.raises(OverlayError):
            overlay.add_mesh_vswitch("client")

    def test_register_switch_creates_tunnels_and_labels(self):
        _, net, overlay = build()
        overlay.register_switch("edge")
        assert overlay.assignment["edge"] == ["mv0", "mv1"]
        for vswitch in ("mv0", "mv1"):
            tunnel = overlay.switch_tunnels[("edge", vswitch)]
            assert overlay.tunnel_origin[tunnel.tunnel_id] == "edge"
            assert overlay.tunnel_entry_vswitch[tunnel.tunnel_id] == vswitch
        for port_no in net["edge"].ports:
            label = overlay.port_label("edge", port_no)
            assert overlay.port_labels[label] == ("edge", port_no)

    def test_register_switch_requires_advanced_dataplane(self):
        sim = Simulator()
        net = Network(sim)
        net.add(PhysicalSwitch(sim, "old", HP_PROCURVE_6600))
        net.add(VSwitch(sim, "mv"))
        net.link("old", "mv")
        overlay = ScotchOverlay(net)
        overlay.add_mesh_vswitch("mv")
        with pytest.raises(OverlayError):
            overlay.register_switch("old")

    def test_vswitches_per_switch_capped_by_mesh(self):
        _, _, overlay = build(racks=1)
        overlay.config.vswitches_per_switch = 5
        overlay.register_switch("edge")
        assert overlay.assignment["edge"] == ["mv0"]

    def test_port_label_stable(self):
        _, _, overlay = build()
        assert overlay.port_label("edge", 1) == overlay.port_label("edge", 1)
        assert overlay.port_label("edge", 1) != overlay.port_label("edge", 2)

    def test_host_delivery_requires_known_mesh(self):
        _, _, overlay = build()
        with pytest.raises(OverlayError):
            overlay.set_host_delivery("client", None, "nope")


class TestActivation:
    def test_activation_messages_cover_every_port(self):
        _, net, overlay = build()
        overlay.register_switch("edge")
        group, mods = overlay.activation_messages("edge")
        port_mods = [m for m in mods if "in_port" in m.match.fields]
        assert {m.match.fields["in_port"] for m in port_mods} == set(net["edge"].ports)
        for mod in port_mods:
            assert mod.priority == PRIORITY_SCOTCH_DEFAULT
            assert isinstance(mod.actions[0], PushMpls)
            assert mod.actions[1] == GotoTable(LB_TABLE)

    def test_activation_includes_lb_rule_and_group(self):
        _, _, overlay = build()
        overlay.register_switch("edge")
        group, mods = overlay.activation_messages("edge")
        lb = [m for m in mods if m.table_id == LB_TABLE]
        assert len(lb) == 1
        assert lb[0].priority == PRIORITY_LB
        assert group.group_id == SCOTCH_GROUP_ID
        assert len(group.buckets) == 2

    def test_buckets_enter_correct_tunnels(self):
        _, net, overlay = build()
        overlay.register_switch("edge")
        group, _ = overlay.activation_messages("edge")
        labels = {b.actions[0].label for b in group.buckets}
        expected = {overlay.switch_tunnels[("edge", v)].tunnel_id for v in ("mv0", "mv1")}
        assert labels == expected

    def test_withdrawal_messages_remove_only_port_defaults(self):
        _, net, overlay = build()
        overlay.register_switch("edge")
        mods = overlay.withdrawal_messages("edge")
        assert all(m.command == "delete" for m in mods)
        # Per-port defaults only; the LB rule stays for pin rules to use.
        assert len(mods) == len(net["edge"].ports)
        assert all("in_port" in m.match.fields for m in mods)


class TestRouting:
    def test_route_same_entry_and_exit(self):
        _, _, overlay = build()
        overlay.register_switch("edge")
        rules = overlay.overlay_route(KEY, "mv0", "server0")
        assert len(rules) == 1
        assert rules[0].dpid == "mv0"

    def test_route_across_mesh_last_hop_first(self):
        _, _, overlay = build()
        overlay.register_switch("edge")
        rules = overlay.overlay_route(KEY, "mv1", "server0")
        assert [r.dpid for r in rules] == ["mv0", "mv1"]
        # Entry rule enters the mesh tunnel toward the exit.
        entry_label = rules[1].actions[0].label
        assert entry_label == overlay.mesh_tunnels[("mv1", "mv0")].tunnel_id

    def test_route_unknown_host_rejected(self):
        _, _, overlay = build()
        with pytest.raises(OverlayError):
            overlay.overlay_route(KEY, "mv0", "client")  # no delivery mapping


class TestFailover:
    def test_live_assignment_substitutes_backup(self):
        _, _, overlay = build(backups=1)
        overlay.register_switch("edge")
        assert overlay.live_assignment("edge") == ["mv0", "mv1"]
        affected = overlay.mark_dead("mv0")
        assert affected == ["edge"]
        assert overlay.live_assignment("edge") == ["bv0", "mv1"]
        overlay.mark_alive("mv0")
        assert overlay.live_assignment("edge") == ["mv0", "mv1"]

    def test_dead_without_backup_shrinks_assignment(self):
        _, _, overlay = build()
        overlay.register_switch("edge")
        overlay.mark_dead("mv0")
        assert overlay.live_assignment("edge") == ["mv1"]

    def test_refresh_group_uses_live_buckets(self):
        _, _, overlay = build(backups=1)
        overlay.register_switch("edge")
        overlay.mark_dead("mv1")
        group = overlay.refresh_group("edge")
        assert group.command == "modify"
        assert [b.label for b in group.buckets] == ["mv0", "bv0"]

    def test_exit_vswitch_falls_back_when_local_dead(self):
        _, _, overlay = build(backups=1)
        overlay.mark_dead("mv0")
        assert overlay.exit_vswitch_for("server0") == "bv0"

    def test_all_dead_raises(self):
        _, _, overlay = build()
        overlay.mark_dead("mv0")
        overlay.mark_dead("mv1")
        with pytest.raises(OverlayError):
            overlay.exit_vswitch_for("server0")
        with pytest.raises(OverlayError):
            overlay.group_buckets("edge")
