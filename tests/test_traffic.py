"""Tests for workload generation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.host import Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.traffic.attack import SpoofedFlood
from repro.traffic.generators import DST_PORT, NewFlowSource, flow_key_sequence
from repro.traffic.sizes import FixedSize, HeavyTailedSizes


def build_host_pair():
    sim = Simulator(seed=1)
    net = Network(sim)
    a = net.add(Host(sim, "a", "10.20.0.1"))
    b = net.add(Host(sim, "b", "10.0.0.100"))
    net.link("a", "b", rate_bps=1e9)
    return sim, a, b


class TestFlowKeySequence:
    def test_unique_over_many_draws(self):
        gen = flow_key_sequence("10.0.0.100")
        keys = [next(gen) for _ in range(100_000)]
        assert len(set(keys)) == len(keys)

    def test_destination_fixed(self):
        gen = flow_key_sequence("10.0.0.100")
        for _ in range(10):
            key = next(gen)
            assert key.dst_ip == "10.0.0.100"
            assert key.dst_port == DST_PORT

    def test_source_net_prefix(self):
        gen = flow_key_sequence("10.0.0.100", src_net=33)
        assert next(gen).src_ip.startswith("10.33.")


class TestNewFlowSource:
    def test_rate_respected(self):
        sim, a, b = build_host_pair()
        source = NewFlowSource(sim, a, "10.0.0.100", rate_fps=100.0)
        source.start(at=0.0, stop_at=2.0)
        sim.run(until=3.0)
        assert 180 <= source.flows_started <= 220

    def test_flows_reach_destination(self):
        sim, a, b = build_host_pair()
        source = NewFlowSource(sim, a, "10.0.0.100", rate_fps=50.0)
        source.start(at=0.0, stop_at=1.0)
        sim.run(until=2.0)
        assert len(b.recv_tap.received_flow_keys()) == source.flows_started

    def test_stop_halts_generation(self):
        sim, a, b = build_host_pair()
        source = NewFlowSource(sim, a, "10.0.0.100", rate_fps=100.0)
        source.start(at=0.0)
        sim.schedule(0.5, source.stop)
        sim.run(until=2.0)
        assert source.flows_started <= 60

    def test_validation(self):
        sim, a, b = build_host_pair()
        with pytest.raises(ValueError):
            NewFlowSource(sim, a, "x", rate_fps=0)


class TestSpoofedFlood:
    def test_every_packet_is_a_new_flow(self):
        sim, a, b = build_host_pair()
        flood = SpoofedFlood(sim, a, "10.0.0.100", rate_fps=500.0)
        flood.start(at=0.0, stop_at=1.0)
        sim.run(until=2.0)
        keys = b.recv_tap.received_flow_keys()
        assert len(keys) == flood.packets_sent
        assert all(k.dst_ip == "10.0.0.100" for k in keys)

    def test_sources_spoofed_outside_lab_space(self):
        sim, a, b = build_host_pair()
        flood = SpoofedFlood(sim, a, "10.0.0.100", rate_fps=100.0)
        flood.start(at=0.0, stop_at=0.5)
        sim.run(until=1.0)
        assert all(not k.src_ip.startswith("10.20.") for k in b.recv_tap.received_flow_keys())

    def test_rate_change_applies(self):
        sim, a, b = build_host_pair()
        flood = SpoofedFlood(sim, a, "10.0.0.100", rate_fps=10.0)
        flood.start(at=0.0, stop_at=2.0)
        sim.schedule(1.0, flood.set_rate, 1000.0)
        sim.run(until=3.0)
        assert flood.packets_sent > 500

    def test_syn_packets_small(self):
        sim, a, b = build_host_pair()
        sizes = []
        b.on_receive = lambda p: sizes.append(p.size)
        flood = SpoofedFlood(sim, a, "10.0.0.100", rate_fps=50.0)
        flood.start(at=0.0, stop_at=0.2)
        sim.run(until=1.0)
        assert all(s == 60 for s in sizes)


class TestSizes:
    def test_fixed_size(self):
        sample = FixedSize(size_packets=3, packet_size=100).sample(random.Random(1))
        assert sample.size_packets == 3
        assert sample.packet_size == 100

    def test_heavy_tail_mice_majority(self):
        rng = random.Random(2)
        sizes = HeavyTailedSizes(elephant_fraction=0.05)
        samples = [sizes.sample(rng) for _ in range(2000)]
        elephants = [s for s in samples if s.is_elephant]
        assert 0.02 < len(elephants) / len(samples) < 0.09

    def test_heavy_tail_elephants_carry_most_bytes(self):
        """The §5.3 premise: few flows, most bytes."""
        rng = random.Random(3)
        sizes = HeavyTailedSizes()
        samples = [sizes.sample(rng) for _ in range(5000)]
        total = sum(s.size_packets for s in samples)
        elephant_bytes = sum(s.size_packets for s in samples if s.is_elephant)
        assert elephant_bytes / total > 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            HeavyTailedSizes(elephant_fraction=1.5)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_samples_always_valid(self, seed):
        sample = HeavyTailedSizes().sample(random.Random(seed))
        assert sample.size_packets >= 1
        assert sample.rate_pps > 0
