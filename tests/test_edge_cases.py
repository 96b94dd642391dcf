"""Assorted edge cases across modules (gaps found by review)."""

import pytest

from repro.net.host import Host
from repro.net.node import Node
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.sim.ratelimit import RateEstimator
from repro.switch.match import Match
from repro.switch.flow_table import FlowEntry, FlowTable
from repro.switch.actions import Drop


def test_rate_estimator_instantaneous_burst_is_finite():
    est = RateEstimator(window_events=8)
    for _ in range(8):
        est.observe(5.0)  # all at the same instant
    rate = est.rate(5.0)
    assert rate > 0
    assert rate < float("inf")


def test_node_port_to_unknown_neighbor():
    sim = Simulator()
    node = Host(sim, "h", "10.0.0.1")
    assert node.port_to("nowhere") is None


def test_node_receive_abstract():
    sim = Simulator()
    node = Node(sim, "n")
    with pytest.raises(NotImplementedError):
        node.receive(None, 1)


def test_flow_table_remove_uses_index_for_qualified_matches():
    table = FlowTable()
    from repro.net.flow import FlowKey

    key = FlowKey("1.1.1.1", "2.2.2.2", 6, 1, 2)
    qualified = Match(mpls_label=9, **Match.for_flow(key).fields)
    table.insert(FlowEntry(qualified, 101, [Drop()]))
    table.insert(FlowEntry(Match.for_flow(key), 100, [Drop()]))
    assert table.remove(qualified, priority=101) == 1
    assert len(table) == 1


def test_flow_table_on_expired_receives_entry():
    table = FlowTable()
    seen = []
    table.on_expired = seen.append
    from repro.net.flow import FlowKey

    key = FlowKey("1.1.1.1", "2.2.2.2", 6, 1, 2)
    idle = FlowEntry(Match.for_flow(key), 100, [Drop()], idle_timeout=1.0)
    table.insert(idle, now=0.0)
    table.insert(FlowEntry(Match(dst_ip="3.3.3.3"), 100, [Drop()]), now=0.0)  # permanent
    table.expire(now=5.0)
    assert seen == [idle]
    assert len(table) == 1


def test_expiry_sweep_runs_by_default():
    from repro.net.flow import FlowKey
    from repro.switch.actions import Output
    from repro.switch.profiles import IDEAL_SWITCH
    from repro.switch.switch import PhysicalSwitch

    sim = Simulator()
    net = Network(sim)
    sw = net.add(PhysicalSwitch(sim, "s", IDEAL_SWITCH))
    key = FlowKey("1.1.1.1", "2.2.2.2", 6, 1, 2)
    sw.install_static(Match.for_flow(key), 100, [Output(1)], idle_timeout=2.0)
    sim.run(until=5.0)
    assert len(sw.datapath.table(0)) == 0  # swept without manual expire


def test_source_pool_bounds_distinct_sources():
    from repro.traffic.generators import flow_key_sequence

    gen = flow_key_sequence("10.0.0.1", source_pool=5)
    keys = [next(gen) for _ in range(500)]
    assert len({k.src_ip for k in keys}) == 5
    assert len(set(keys)) == 500  # ports keep them unique flows


def test_source_pool_validation():
    from repro.net.host import Host
    from repro.traffic.generators import NewFlowSource

    sim = Simulator()
    net = Network(sim)
    host = net.add(Host(sim, "h", "10.0.0.1"))
    with pytest.raises(ValueError):
        NewFlowSource(sim, host, "10.0.0.2", rate_fps=1.0, source_pool=0)


def test_monitor_force_congested_idempotent():
    from repro.core.monitor import CongestionMonitor
    from repro.switch.profiles import PICA8_PRONTO_3780

    sim = Simulator()
    fired = []
    monitor = CongestionMonitor(sim, fired.append, lambda d: None)
    monitor.watch("sw", PICA8_PRONTO_3780)
    monitor.force_congested("sw")
    monitor.force_congested("sw")
    assert fired == ["sw"]
    monitor.force_congested("unknown")  # silently ignored
    assert fired == ["sw"]
