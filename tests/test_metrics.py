"""Tests for measurement: recorders, failure fraction, meters, stats."""

import pytest
from hypothesis import given, strategies as st

from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.net.tap import PacketRecorder, client_flow_failure_fraction
from repro.obs.metrics import cdf_points, mean, percentile
from repro.sim.ratelimit import RateEstimator


def packet(sport=1):
    return Packet("1.1.1.1", "2.2.2.2", src_port=sport, dst_port=80)


class TestRecorder:
    def test_send_receive_accounting(self):
        tap = PacketRecorder()
        tap.on_send(packet(1), 1.0)
        tap.on_receive(packet(1), 2.0)
        record = tap.flow(FlowKey("1.1.1.1", "2.2.2.2", 6, 1, 80))
        assert record.first_sent_at == 1.0
        assert record.first_received_at == 2.0

    def test_received_in_window(self):
        tap = PacketRecorder()
        tap.on_receive(packet(1), 1.0)
        tap.on_receive(packet(2), 5.0)
        assert len(tap.received_in(0.0, 2.0)) == 1
        assert len(tap.received_in(0.0, 10.0)) == 2

    def test_count_aware(self):
        tap = PacketRecorder()
        p = packet(1)
        p.count = 7
        tap.on_receive(p, 1.0)
        assert tap.total_packets == 7


class TestFailureFraction:
    def test_basic_fraction(self):
        client, server = PacketRecorder(), PacketRecorder()
        for sport in range(10):
            client.on_send(packet(sport), float(sport))
        for sport in range(6):
            server.on_receive(packet(sport), float(sport) + 0.1)
        assert client_flow_failure_fraction(client, server) == pytest.approx(0.4)

    def test_window_restriction(self):
        client, server = PacketRecorder(), PacketRecorder()
        client.on_send(packet(1), 1.0)   # delivered
        client.on_send(packet(2), 10.0)  # lost, but outside the window
        server.on_receive(packet(1), 1.1)
        assert client_flow_failure_fraction(client, server, start=0.0, end=5.0) == 0.0
        assert client_flow_failure_fraction(client, server) == pytest.approx(0.5)
        # A source prefix separates one sender's flows in a shared tap
        # (Fig. 11's client on the attacker's host).
        client.on_send(Packet("10.21.0.1", "2.2.2.2", src_port=3, dst_port=80), 2.0)  # lost
        assert client_flow_failure_fraction(client, server, src_prefix="10.21.") == 1.0
        assert client_flow_failure_fraction(
            client, server, start=0.0, end=5.0, src_prefix="1.1.") == 0.0
        assert client_flow_failure_fraction(client, server, start=0.0, end=5.0) == 0.5
        assert client_flow_failure_fraction(client, server, src_prefix="10.22.") == 0.0

    def test_empty_client_returns_zero(self):
        assert client_flow_failure_fraction(PacketRecorder(), PacketRecorder()) == 0.0

    def test_several_sinks_count_a_flow_delivered_at_any_of_them(self):
        client = PacketRecorder()
        sinks = [PacketRecorder(), PacketRecorder()]
        for sport in range(4):
            client.on_send(packet(sport), float(sport))
        sinks[0].on_receive(packet(0), 0.1)
        sinks[1].on_receive(packet(1), 1.1)
        sinks[1].on_receive(packet(0), 0.2)  # seen twice: still one flow
        assert client_flow_failure_fraction(client, sinks) == pytest.approx(0.5)
        assert client_flow_failure_fraction(client, sinks, start=0.0, end=2.0) == 0.0
        assert client_flow_failure_fraction(client, []) == 1.0


class TestMeters:
    def test_rate_estimator_steady_rate(self):
        est = RateEstimator(window_events=16)
        for i in range(100):
            est.observe(i * 0.01)
        assert est.rate(1.0) == pytest.approx(100.0, rel=0.05)

    def test_rate_estimator_needs_two_events(self):
        est = RateEstimator()
        assert est.rate() == 0.0
        est.observe(1.0)
        assert est.rate() == 0.0

    def test_rate_estimator_window_ages_out(self):
        est = RateEstimator(window_events=16, window_seconds=1.0)
        for i in range(16):
            est.observe(i * 0.01)
        assert est.rate(now=0.2) > 50
        assert est.rate(now=10.0) == 0.0

    def test_rate_estimator_validation(self):
        with pytest.raises(ValueError):
            RateEstimator(window_events=1)


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_percentile_interpolation(self):
        data = [0, 10]
        assert percentile(data, 50) == 5.0
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 10

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_cdf_points_monotone(self):
        points = cdf_points(list(range(100)), points=10)
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert points[-1][1] == 1.0

    def test_cdf_empty(self):
        assert cdf_points([]) == []

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    def test_percentile_bounds_property(self, values):
        p0 = percentile(values, 0)
        p100 = percentile(values, 100)
        p50 = percentile(values, 50)
        assert p0 == min(values)
        assert p100 == max(values)
        assert p0 <= p50 <= p100
