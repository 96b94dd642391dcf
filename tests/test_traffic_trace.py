"""Tests for synthetic traces."""

import random

import pytest

from repro.net.host import Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.traffic.trace import TraceReplayer, generate_trace


def make_trace(duration=10.0, **kwargs):
    rng = random.Random(1)
    return generate_trace(
        rng,
        src_hosts=["h0", "h1"],
        dst_ips=["10.0.0.1", "10.0.0.2"],
        base_rate_fps=50.0,
        duration=duration,
        **kwargs,
    )


def test_records_sorted_and_within_duration():
    records = make_trace()
    times = [r.time for r in records]
    assert times == sorted(times)
    assert all(0 <= t < 10.0 for t in times)


def test_unique_five_tuples():
    records = make_trace()
    keys = [r.key for r in records]
    assert len(set(keys)) == len(keys)


def test_surge_raises_rate():
    records = make_trace(surge_start=4.0, surge_end=6.0, surge_multiplier=10.0)
    inside = sum(1 for r in records if 4.0 <= r.time < 6.0)
    outside = sum(1 for r in records if r.time < 2.0)
    assert inside > outside * 4


def test_sources_and_destinations_drawn_from_inputs():
    records = make_trace()
    assert {r.src_host for r in records} <= {"h0", "h1"}
    assert {r.key.dst_ip for r in records} <= {"10.0.0.1", "10.0.0.2"}


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        generate_trace(random.Random(1), [], ["x"], 1.0, 1.0)


def test_replayer_schedules_all_flows():
    sim = Simulator()
    net = Network(sim)
    h0 = net.add(Host(sim, "h0", "10.9.0.1"))
    h1 = net.add(Host(sim, "h1", "10.9.0.2"))
    sink = net.add(Host(sim, "sink", "10.0.0.1"))
    net.link("h0", "sink")
    net.link("h1", "sink")
    records = [r for r in make_trace(duration=2.0) if r.key.dst_ip == "10.0.0.1"]
    replayer = TraceReplayer(sim, {"h0": h0, "h1": h1})
    replayer.schedule(records, offset=0.1)
    sim.run()
    assert replayer.flows_scheduled == len(records)
    assert len(sink.recv_tap.received_flow_keys()) == len(records)


def test_replayer_unknown_host_rejected():
    sim = Simulator()
    replayer = TraceReplayer(sim, {})
    with pytest.raises(KeyError):
        replayer.schedule(make_trace(duration=0.5))
