"""Tests for congestion detection and withdrawal conditions."""

import pytest

import repro.core.monitor as monitor_module
from repro.core.monitor import CongestionMonitor
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.switch.profiles import PICA8_PRONTO_3780


@pytest.fixture(autouse=True)
def fast_monitor(monkeypatch):
    """A 0.1 s tick and a 1 s withdrawal hold keep every run short."""
    monkeypatch.setattr(monitor_module, "MONITOR_INTERVAL", 0.1)
    monkeypatch.setattr(monitor_module, "WITHDRAW_HOLD", 1.0)


def build():
    sim = Simulator()
    congested, cleared = [], []
    monitor = CongestionMonitor(
        sim,
        on_congested=lambda d: congested.append((sim.now, d)),
        on_cleared=lambda d: cleared.append((sim.now, d)),
    )
    monitor.watch("sw", PICA8_PRONTO_3780)
    monitor.start()
    return sim, monitor, congested, cleared


def drive(sim, monitor, rate, start, stop):
    def source():
        while sim.now < stop:
            monitor.observe_new_flow("sw")
            yield 1.0 / rate

    Process(sim, source(), start_delay=start)


def test_no_event_below_threshold():
    sim, monitor, congested, cleared = build()
    drive(sim, monitor, rate=100.0, start=0.0, stop=5.0)  # < 0.8*200
    sim.run(until=6.0)
    assert congested == []


def test_congestion_detected_above_threshold():
    sim, monitor, congested, _ = build()
    drive(sim, monitor, rate=190.0, start=0.0, stop=5.0)
    sim.run(until=6.0)
    assert len(congested) == 1
    assert congested[0][0] < 1.0  # detected quickly
    assert monitor.is_congested("sw")


def test_congestion_fires_once_until_cleared():
    sim, monitor, congested, _ = build()
    drive(sim, monitor, rate=300.0, start=0.0, stop=5.0)
    sim.run(until=6.0)
    assert len(congested) == 1


def test_withdrawal_requires_hold_time():
    sim, monitor, congested, cleared = build()
    drive(sim, monitor, rate=300.0, start=0.0, stop=2.0)
    drive(sim, monitor, rate=50.0, start=2.0, stop=10.0)  # < 0.6*200
    sim.run(until=10.0)
    assert len(cleared) == 1
    clear_time = cleared[0][0]
    assert clear_time >= 2.0 + 1.0  # hold period respected


def test_no_withdrawal_while_rate_in_between():
    sim, monitor, congested, cleared = build()
    drive(sim, monitor, rate=300.0, start=0.0, stop=2.0)
    drive(sim, monitor, rate=150.0, start=2.0, stop=10.0)  # between 120 and 160
    sim.run(until=10.0)
    assert cleared == []


def test_dip_resets_hold_timer(monkeypatch):
    monkeypatch.setattr(monitor_module, "WITHDRAW_HOLD", 2.0)
    sim, monitor, congested, cleared = build()
    drive(sim, monitor, rate=300.0, start=0.0, stop=2.0)
    drive(sim, monitor, rate=50.0, start=2.0, stop=3.0)   # dips below...
    drive(sim, monitor, rate=300.0, start=3.0, stop=4.0)  # ...but spikes again
    drive(sim, monitor, rate=50.0, start=4.0, stop=10.0)
    sim.run(until=10.0)
    assert len(congested) == 1  # congested never cleared in between
    assert cleared and cleared[0][0] >= 6.0


def test_re_congestion_after_clear():
    sim, monitor, congested, cleared = build()
    drive(sim, monitor, rate=300.0, start=0.0, stop=2.0)
    drive(sim, monitor, rate=10.0, start=2.0, stop=5.0)
    drive(sim, monitor, rate=300.0, start=5.0, stop=7.0)
    sim.run(until=8.0)
    assert len(congested) == 2
    assert len(cleared) == 1


def test_rate_query():
    sim, monitor, _, _ = build()
    drive(sim, monitor, rate=100.0, start=0.0, stop=2.0)
    sim.run(until=1.0)
    assert 80 <= monitor.rate("sw") <= 120
    assert monitor.rate("unknown") == 0.0


def test_stop_halts_evaluation():
    sim, monitor, congested, _ = build()
    monitor.stop()
    drive(sim, monitor, rate=300.0, start=0.0, stop=3.0)
    sim.run(until=4.0)
    assert congested == []
