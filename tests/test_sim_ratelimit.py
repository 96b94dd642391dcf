"""Tests for rate-limited servers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.ratelimit import RateLimitedServer


class TestRateLimitedServer:
    def test_serves_at_configured_rate(self):
        sim = Simulator()
        done = []
        server = RateLimitedServer(sim, rate=10.0, queue_capacity=None,
                                   handler=lambda item: done.append(sim.now))
        for i in range(5):
            server.submit(i)
        sim.run()
        assert done == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_drops_when_queue_full(self):
        sim = Simulator()
        server = RateLimitedServer(sim, rate=1.0, queue_capacity=2, handler=lambda i: None)
        results = [server.submit(i) for i in range(5)]
        # First begins service immediately (dequeued), two more queue, rest drop.
        assert results == [True, True, True, False, False]
        assert server.dropped == 2

    def test_served_counter(self):
        sim = Simulator()
        server = RateLimitedServer(sim, rate=100.0, queue_capacity=None, handler=lambda i: None)
        for i in range(7):
            server.submit(i)
        sim.run()
        assert server.served == 7

    def test_resumes_after_idle(self):
        sim = Simulator()
        done = []
        server = RateLimitedServer(sim, rate=10.0, queue_capacity=None,
                                   handler=lambda item: done.append((item, sim.now)))
        server.submit("a")
        sim.schedule(1.0, server.submit, "b")
        sim.run()
        assert done[0] == ("a", pytest.approx(0.1))
        assert done[1] == ("b", pytest.approx(1.1))

    def test_set_rate_changes_future_service(self):
        sim = Simulator()
        done = []
        server = RateLimitedServer(sim, rate=1.0, queue_capacity=None,
                                   handler=lambda item: done.append(sim.now))
        server.submit("a")
        server.submit("b")
        sim.schedule(0.5, server.set_rate, 100.0)
        sim.run()
        assert done[0] == pytest.approx(1.0)
        assert done[1] == pytest.approx(1.01)

    def test_invalid_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            RateLimitedServer(sim, rate=0.0, queue_capacity=None, handler=lambda i: None)

    def test_fifo_service_order(self):
        sim = Simulator()
        done = []
        server = RateLimitedServer(sim, rate=50.0, queue_capacity=None, handler=done.append)
        for i in range(10):
            server.submit(i)
        sim.run()
        assert done == list(range(10))

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_throughput_never_exceeds_rate(self, n):
        sim = Simulator()
        done = []
        server = RateLimitedServer(sim, rate=100.0, queue_capacity=None,
                                   handler=lambda item: done.append(sim.now))
        for i in range(n):
            server.submit(i)
        sim.run()
        assert len(done) == n
        # n items at 100/s must take at least (n)/100 seconds.
        assert done[-1] >= n / 100.0 - 1e-9
