"""Tests for the topology registry and path queries."""

import pytest

from repro.net.host import Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.switch import PhysicalSwitch


def build_line(n=4):
    sim = Simulator()
    net = Network(sim)
    for i in range(n):
        net.add(PhysicalSwitch(sim, f"s{i}"))
    for i in range(n - 1):
        net.link(f"s{i}", f"s{i+1}")
    return sim, net


def test_duplicate_node_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add(PhysicalSwitch(sim, "s"))
    with pytest.raises(ValueError):
        net.add(PhysicalSwitch(sim, "s"))


def test_getitem_and_contains():
    sim, net = build_line()
    assert net["s0"].name == "s0"
    assert "s0" in net
    assert "zz" not in net


def test_shortest_path_line():
    _, net = build_line(4)
    assert net.shortest_path("s0", "s3") == ["s0", "s1", "s2", "s3"]


def test_shortest_path_prefers_low_delay():
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "b", "c"):
        net.add(PhysicalSwitch(sim, name))
    net.link("a", "c", delay=10e-3)
    net.link("a", "b", delay=1e-3)
    net.link("b", "c", delay=1e-3)
    assert net.shortest_path("a", "c") == ["a", "b", "c"]


def test_port_between():
    _, net = build_line(2)
    port_no = net.port_between("s0", "s1")
    assert net["s0"].port(port_no).link.dst_node.name == "s1"
    with pytest.raises(KeyError):
        net.port_between("s0", "s0")


def test_excluded_node_not_used_as_transit():
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "mb", "c"):
        net.add(PhysicalSwitch(sim, name))
    net.link("a", "mb", delay=1e-6)
    net.link("mb", "c", delay=1e-6)
    net.link("a", "c", delay=1.0)
    assert net.shortest_path("a", "c") == ["a", "mb", "c"]
    net.exclude_from_routing("mb")
    assert net.shortest_path("a", "c") == ["a", "c"]
    # Still allowed as an endpoint.
    assert net.shortest_path("a", "mb") == ["a", "mb"]


def test_path_cache_invalidated_by_new_link():
    sim, net = build_line(3)
    assert net.shortest_path("s0", "s2") == ["s0", "s1", "s2"]
    net.link("s0", "s2", delay=1e-9)
    assert net.shortest_path("s0", "s2") == ["s0", "s2"]


def test_path_delay_sums_edges():
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "b", "c"):
        net.add(PhysicalSwitch(sim, name))
    net.link("a", "b", delay=0.1)
    net.link("b", "c", delay=0.2)
    net.link("a", "c", delay=0.35)
    assert net.shortest_path("a", "c") == ["a", "b", "c"]  # 0.3 < 0.35


def test_neighbors():
    _, net = build_line(3)
    assert set(net.neighbors("s1")) == {"s0", "s2"}


def test_hosts_participate_in_paths():
    sim, net = build_line(2)
    net.add(Host(sim, "h", "10.0.0.1"))
    net.link("h", "s0")
    assert net.shortest_path("h", "s1") == ["h", "s0", "s1"]
