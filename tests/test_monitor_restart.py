"""Regression tests: stop()/start() cycles on the periodic monitors.

Before the fix, stop() only flipped a flag; the already-scheduled tick
survived in the calendar, and start() scheduled a second one — every
stop/start cycle doubled the tick chain (and its echo / evaluation
load) forever.  The monitors now hold the scheduled Event handle and
cancel it.  HeartbeatMonitor additionally clears its per-switch miss
counts on stop(), so a restarted monitor cannot declare a vSwitch dead
from echoes it never sent.
"""

from repro.core.config import ScotchConfig
import repro.core.monitor as monitor_module
from repro.core.monitor import CongestionMonitor
from repro.sim.engine import Simulator
from repro.switch.profiles import PICA8_PRONTO_3780
from repro.testbed.deployment import build_deployment


def _deployment(**kwargs):
    config = ScotchConfig(heartbeat_interval=0.5, heartbeat_miss_limit=3)
    return build_deployment(seed=4, racks=2, mesh_per_rack=1, backups=1,
                            config=config, **kwargs)


# ----------------------------------------------------------------------
# HeartbeatMonitor
# ----------------------------------------------------------------------
def _count_echoes(dep):
    """Wrap controller.echo with a counter; returns the count list."""
    echoes = []
    original = dep.controller.echo

    def spy(dpid):
        echoes.append(dpid)
        return original(dpid)

    dep.controller.echo = spy
    return echoes


def test_heartbeat_stop_start_does_not_double_echo_rate():
    dep = _deployment()
    heartbeat = dep.scotch.heartbeat
    echoes = _count_echoes(dep)
    dep.sim.run(until=3.0)
    window1 = len(echoes)
    # Cycle the monitor several times: each cycle used to leave one more
    # live tick chain behind.
    for _ in range(3):
        heartbeat.stop()
        heartbeat.start()
    dep.sim.run(until=6.0)
    window2 = len(echoes) - window1
    # Same-length windows, same tick rate: the second window must not
    # carry multiples of the first (allow small phase slack).
    assert window2 <= window1 * 1.5


def test_heartbeat_stop_cancels_tick_event():
    dep = _deployment()
    heartbeat = dep.scotch.heartbeat
    dep.sim.run(until=1.0)
    assert heartbeat._timer.event is not None
    heartbeat.stop()
    assert heartbeat._timer.event is None
    # And no new echoes are sent while stopped.
    echoes = _count_echoes(dep)
    dep.sim.run(until=4.0)
    assert echoes == []


def test_heartbeat_stop_clears_pending_miss_counts():
    dep = _deployment()
    heartbeat = dep.scotch.heartbeat
    victim = dep.mesh_vswitches[0]
    dep.sim.schedule(1.0, victim.fail)
    dep.sim.run(until=2.3)  # a couple of missed echoes, below the limit
    assert heartbeat._pending.get(victim.name, 0) > 0
    heartbeat.stop()
    assert heartbeat._pending == {}
    # Restart with the vSwitch already recovered: the stale misses must
    # not count toward a death declaration.
    victim.recover()
    heartbeat.start()
    dep.sim.run(until=6.0)
    assert heartbeat.failures_detected == 0


def test_heartbeat_restart_still_detects_real_failures():
    dep = _deployment()
    heartbeat = dep.scotch.heartbeat
    heartbeat.stop()
    heartbeat.start()
    victim = dep.mesh_vswitches[0]
    dep.sim.schedule(1.0, victim.fail)
    dep.sim.run(until=8.0)
    assert heartbeat.failures_detected == 1


# ----------------------------------------------------------------------
# CongestionMonitor
# ----------------------------------------------------------------------
def test_congestion_monitor_stop_start_does_not_double_ticks(monkeypatch):
    monkeypatch.setattr(monitor_module, "MONITOR_INTERVAL", 0.1)
    sim = Simulator()
    monitor = CongestionMonitor(sim, lambda d: None, lambda d: None)
    monitor.watch("sw", PICA8_PRONTO_3780)
    ticks = []
    original = monitor._tick

    def spy():
        ticks.append(sim.now)
        original()

    monitor._tick = spy
    monitor.start()
    sim.run(until=1.0)
    first_window = len(ticks)
    for _ in range(3):
        monitor.stop()
        monitor.start()
    sim.run(until=2.0)
    second_window = len(ticks) - first_window
    assert second_window <= first_window * 1.5


def test_congestion_monitor_stop_cancels_tick(monkeypatch):
    monkeypatch.setattr(monitor_module, "MONITOR_INTERVAL", 0.1)
    sim = Simulator()
    monitor = CongestionMonitor(sim, lambda d: None, lambda d: None)
    monitor.watch("sw", PICA8_PRONTO_3780)
    monitor.start()
    sim.run(until=0.5)
    monitor.stop()
    assert monitor._timer.event is None
    sim.run(until=2.0)  # nothing left but cancelled daemons
    assert not monitor._timer.running


# ----------------------------------------------------------------------
# StatsPoller (same handle-and-cancel pattern)
# ----------------------------------------------------------------------
def test_stats_poller_stop_start_does_not_double_polls():
    dep = _deployment()
    poller = dep.scotch.stats_poller
    dep.sim.run(until=3.0)
    before = dep.controller.stats_replies_received
    for _ in range(3):
        poller.stop()
        poller.start()
    dep.sim.run(until=6.0)
    window2 = dep.controller.stats_replies_received - before
    assert window2 <= before * 1.5 + 2
