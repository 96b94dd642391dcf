"""Tests for the router and flow-info database."""

from repro.controller.flow_info_db import (
    ROUTE_OVERLAY,
    ROUTE_PENDING,
    ROUTE_PHYSICAL,
    FlowInfoDatabase,
)
from repro.controller.routing import Router
from repro.net.flow import FlowKey
from repro.net.host import Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.actions import Output
from repro.switch.switch import PhysicalSwitch

KEY = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 80)


def build():
    sim = Simulator()
    net = Network(sim)
    for i in range(3):
        net.add(PhysicalSwitch(sim, f"s{i}"))
    net.link("s0", "s1")
    net.link("s1", "s2")
    net.add(Host(sim, "client", "10.0.0.1"))
    net.add(Host(sim, "server", "10.0.0.2"))
    net.link("client", "s0")
    net.link("server", "s2")
    return sim, net, Router(net)


class TestRouter:
    def test_host_lookup(self):
        _, net, router = build()
        assert router.host_for("10.0.0.2").name == "server"
        assert router.host_for("9.9.9.9") is None

    def test_path_to_includes_host(self):
        _, net, router = build()
        assert router.path_to("s0", "10.0.0.2") == ["s0", "s1", "s2", "server"]

    def test_path_to_unknown_host(self):
        _, net, router = build()
        assert router.path_to("s0", "8.8.8.8") is None

    def test_rules_last_hop_first(self):
        _, net, router = build()
        path = router.path_to("s0", "10.0.0.2")
        rules = router.rules_for_path(path, KEY)
        assert [r.dpid for r in rules] == ["s2", "s1", "s0"]
        for rule in rules:
            assert rule.match.is_exact_five_tuple
            assert isinstance(rule.actions[0], Output)

    def test_rules_output_ports_point_along_path(self):
        _, net, router = build()
        path = router.path_to("s0", "10.0.0.2")
        rules = {r.dpid: r for r in router.rules_for_path(path, KEY)}
        assert rules["s0"].actions[0].port_no == net.port_between("s0", "s1")
        assert rules["s2"].actions[0].port_no == net.port_between("s2", "server")

    def test_refresh_hosts_picks_up_new_hosts(self):
        sim, net, router = build()
        net.add(Host(sim, "late", "10.0.0.3"))
        net.link("late", "s1")
        assert router.host_for("10.0.0.3") is None
        router.refresh_hosts()
        assert router.host_for("10.0.0.3").name == "late"


class TestFlowInfoDatabase:
    def test_record_and_lookup(self):
        db = FlowInfoDatabase()
        info = db.record(KEY, "s0", 3, now=1.0)
        assert info.route == ROUTE_PENDING
        assert db.get(KEY) is info
        assert KEY in db
        assert len(db) == 1

    def test_record_idempotent(self):
        db = FlowInfoDatabase()
        first = db.record(KEY, "s0", 3, now=1.0)
        second = db.record(KEY, "s9", 9, now=2.0)
        assert first is second
        assert second.first_hop_switch == "s0"

    def test_route_transitions_and_migrated_at(self):
        db = FlowInfoDatabase()
        db.record(KEY, "s0", 3, now=1.0)
        db.set_route(KEY, ROUTE_OVERLAY)
        db.set_route(KEY, ROUTE_PHYSICAL, now=5.0)
        assert db.get(KEY).migrated_at == 5.0

    def test_overlay_flows_via(self):
        db = FlowInfoDatabase()
        other = FlowKey("1.1.1.1", "2.2.2.2", 6, 1, 2)
        db.record(KEY, "s0", 1, now=0.0)
        db.record(other, "s1", 1, now=0.0)
        db.set_route(KEY, ROUTE_OVERLAY)
        db.set_route(other, ROUTE_OVERLAY)
        assert [i.key for i in db.overlay_flows_via("s0")] == [KEY]

    def test_counts(self):
        db = FlowInfoDatabase()
        db.record(KEY, "s0", 1, now=0.0)
        assert db.counts() == {ROUTE_PENDING: 1}

    def test_forget(self):
        db = FlowInfoDatabase()
        db.record(KEY, "s0", 1, now=0.0)
        db.forget(KEY)
        assert KEY not in db
        db.forget(KEY)  # idempotent
