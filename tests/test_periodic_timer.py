"""PeriodicTimer + per-daemon restart regressions (tick-chain doubling).

The bug class: a periodic daemon whose ``stop()`` only flips a flag
leaves the already-scheduled tick alive in the calendar; ``start()``
then schedules a second chain, and the surviving tick re-arms itself
when it fires — every stop/start cycle doubles the tick rate forever.
``repro.sim.process.PeriodicTimer`` owns the pending event so stop()
always cancels it; these tests pin the behaviour for the helper itself
and for every daemon migrated onto it (the heartbeat/congestion/stats
monitors have their own suite in test_monitor_restart.py).
"""

from repro.faults.invariants import InvariantChecker
from repro.obs.health import HealthEngine
from repro.obs.metrics import MetricsRegistry, MetricsSampler
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTimer

import pytest


# ----------------------------------------------------------------------
# The helper itself
# ----------------------------------------------------------------------
def test_timer_runs_and_rearms():
    sim = Simulator()
    ticks = []

    class Daemon:
        def __init__(self):
            self.timer = PeriodicTimer(sim, 0.1, self.tick)

        def tick(self):
            if not self.timer.running:
                return
            ticks.append(sim.now)
            self.timer.rearm()

    daemon = Daemon()
    daemon.timer.start()
    sim.run(until=1.05)
    assert len(ticks) == 10


def test_timer_stop_cancels_pending_event_and_rearm_noops():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, 0.5, lambda: fired.append(sim.now))
    timer.start()
    assert timer.event is not None
    timer.stop()
    assert timer.event is None and not timer.running
    timer.rearm()  # must not resurrect the chain
    sim.run(until=3.0)
    assert fired == []


def test_timer_stop_start_cycles_never_double_the_chain():
    sim = Simulator()
    ticks = []

    class Daemon:
        def __init__(self):
            self.timer = PeriodicTimer(sim, 0.1, self.tick)

        def tick(self):
            if not self.timer.running:
                return
            ticks.append(sim.now)
            self.timer.rearm()

    daemon = Daemon()
    daemon.timer.start()
    sim.run(until=1.0)
    window1 = len(ticks)
    for _ in range(4):
        daemon.timer.stop()
        daemon.timer.start()
    sim.run(until=2.0)
    window2 = len(ticks) - window1
    assert window2 <= window1 + 1  # same rate, small phase slack


def test_timer_start_is_idempotent():
    sim = Simulator()
    ticks = []

    class Daemon:
        def __init__(self):
            self.timer = PeriodicTimer(sim, 0.25, self.tick)

        def tick(self):
            ticks.append(sim.now)
            self.timer.rearm()

    daemon = Daemon()
    daemon.timer.start()
    daemon.timer.start()
    daemon.timer.start()
    sim.run(until=1.05)
    assert len(ticks) == 4


def test_timer_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        PeriodicTimer(Simulator(), 0.0, lambda: None)


# ----------------------------------------------------------------------
# Migrated daemons, one regression each
# ----------------------------------------------------------------------
def _cycle(daemon, times=3):
    for _ in range(times):
        daemon.stop()
        daemon.start()


def test_health_engine_restart_does_not_double_ticks():
    sim = Simulator()
    engine = HealthEngine(sim, MetricsRegistry(), rules=[], interval=0.25)
    engine.start()
    sim.run(until=2.0)
    window1 = engine.ticks
    _cycle(engine)
    sim.run(until=4.0)
    assert engine.ticks - window1 <= window1 + 1
    engine.stop()
    assert engine._timer.event is None


def test_metrics_sampler_restart_does_not_double_ticks():
    sim = Simulator()
    sampler = MetricsSampler(sim, MetricsRegistry(), interval=0.25)
    sampler.start()
    sim.run(until=2.0)
    window1 = sampler.ticks
    _cycle(sampler)
    sim.run(until=4.0)
    assert sampler.ticks - window1 <= window1 + 1
    sampler.stop()
    assert sampler._timer.event is None


def test_invariant_checker_restart_does_not_double_checks():
    """The checker's old stop() never cancelled the pending tick — this
    was a live instance of the doubling bug (inert only because nothing
    stop/started it mid-run)."""
    from repro.testbed.deployment import build_deployment

    dep = build_deployment(seed=4, racks=2, mesh_per_rack=1, backups=1)
    checker = InvariantChecker(dep.sim, dep.network, dep.overlay,
                               scotch=dep.scotch, interval=0.25)
    checker.start()
    dep.sim.run(until=2.0)
    window1 = checker.checks_run
    _cycle(checker)
    dep.sim.run(until=4.0)
    assert checker.checks_run - window1 <= window1 + 1


def test_sampling_service_restart_does_not_double_exports():
    from repro.core.config import ScotchConfig
    from repro.testbed.deployment import build_deployment

    config = ScotchConfig(stats_mode="sample")
    dep = build_deployment(seed=4, racks=2, mesh_per_rack=1, backups=1,
                           config=config)
    service = dep.scotch.stats_service
    dep.sim.run(until=2.0)
    vswitch = dep.mesh_vswitches[0].name
    window1 = dep.scotch.stats_service.samplers[vswitch].reports_sent
    _cycle(service)
    dep.sim.run(until=4.0)
    window2 = service.samplers[vswitch].reports_sent - window1
    assert window2 <= window1 + 2  # restart may re-phase by one export


def test_scotch_flow_db_prune_is_one_tick_chain():
    from repro.testbed.deployment import build_deployment

    dep = build_deployment(seed=4, racks=2, mesh_per_rack=1, backups=1)
    app = dep.scotch

    def pending_prunes():
        return sum(1 for _, _, event in dep.sim._heap
                   if not event.cancelled
                   and event.callback == app._prune_flow_db)

    # ScotchApp.start() (run by the builder) armed exactly one tick.
    assert pending_prunes() == 1
    _cycle(app._prune_timer)
    assert pending_prunes() == 1
    dep.sim.run(until=25.0)  # two prunes fired and re-armed
    assert pending_prunes() == 1
