"""Tests for the streaming health engine: SLI computation over sliding
sim-time windows, the daemon tick lifecycle, and alert integration."""

import json

import pytest

from repro.obs.health import HealthEngine, SliSpec, _wildcard_capture
from repro.obs.metrics import MetricsRegistry
from repro.obs.rules import parse_rules
from repro.obs.scorecard import firings_from_timeline
from repro.sim.engine import Simulator


def _engine(sim, registry, slis, rules=()):
    return HealthEngine(sim, registry, rules=list(rules), slis=slis,
                        interval=0.25)


# ----------------------------------------------------------------------
# Construction / validation
# ----------------------------------------------------------------------
def test_engine_rejects_disabled_registry():
    from repro.obs import NULL_OBS

    with pytest.raises(ValueError):
        HealthEngine(Simulator(), NULL_OBS.metrics)


def test_engine_rejects_rule_referencing_unknown_sli():
    with pytest.raises(ValueError):
        HealthEngine(Simulator(), MetricsRegistry(),
                     rules=parse_rules("r: no.such.sli > 1"))


def test_engine_rejects_bad_interval():
    with pytest.raises(ValueError):
        HealthEngine(Simulator(), MetricsRegistry(), rules=[], interval=0.0)


def test_sli_spec_validation():
    with pytest.raises(ValueError):
        SliSpec("x", "bogus")
    with pytest.raises(ValueError):
        SliSpec("x", "rate", window=0.0)


def test_wildcard_capture():
    assert _wildcard_capture("ofa.*.packet_ins", "ofa.sw1.packet_ins") == "sw1"
    assert _wildcard_capture("ofa.*.packet_ins", "ofa.sw1.drops") is None
    assert _wildcard_capture("overlay.relay.*", "overlay.relay.mv0") == "mv0"
    assert _wildcard_capture("exact", "exact") == "exact"
    assert _wildcard_capture("exact", "other") is None


# ----------------------------------------------------------------------
# SLI kinds
# ----------------------------------------------------------------------
def test_rate_sli_windows_counter_deltas():
    sim = Simulator()
    registry = MetricsRegistry()
    counter = registry.counter("ofa.sw1.packet_in_drops")
    spec = SliSpec("drops", "rate", window=1.0,
                   patterns=("ofa.*.packet_in_drops",))
    engine = _engine(sim, registry, [spec])
    engine.start()
    for index in range(8):  # 10 events every 0.25s -> 40/s
        sim.schedule(0.25 * index + 0.1, counter.inc, 10)
    sim.run(until=2.0)
    engine.stop()
    series = dict(engine.series["drops"])
    assert series[2.0] == pytest.approx(40.0)
    # Early in the run the baseline is the engine-start snapshot, so the
    # rate uses the actual (shorter) span instead of reading low.
    assert series[0.25] == pytest.approx(40.0)


def test_gauge_sli_max_and_sum():
    sim = Simulator()
    registry = MetricsRegistry()
    registry.gauge("ofa.a.packet_in_queue", fn=lambda: 3.0)
    registry.gauge("ofa.b.packet_in_queue", fn=lambda: 7.0)
    specs = [
        SliSpec("qmax", "gauge", gauge_pattern="ofa.*.packet_in_queue",
                agg="max"),
        SliSpec("qsum", "gauge", gauge_pattern="ofa.*.packet_in_queue",
                agg="sum"),
    ]
    values = _engine(sim, registry, specs).compute(0.0)
    assert values["qmax"] == 7.0
    assert values["qsum"] == 10.0


def test_quantile_sli_sees_only_the_window():
    sim = Simulator()
    registry = MetricsRegistry()
    hist = registry.histogram("lat", buckets=(0.001, 0.01, 0.1, 1.0))
    spec = SliSpec("p50", "quantile", window=0.5, histogram="lat", q=0.5)
    engine = _engine(sim, registry, [spec])
    engine.start()

    def observe(value, n):
        for _ in range(n):
            hist.observe(value)

    # 100 fast observations early, 10 slow ones inside the last window:
    # the windowed p50 must reflect only the slow ones (the whole-run
    # p50 would be 0.001).
    sim.schedule(0.1, observe, 0.001, 100)
    sim.schedule(1.4, observe, 0.5, 10)
    sim.run(until=1.5)
    engine.stop()
    # Bucket bound 1.0 clamped to the histogram's observed max 0.5.
    assert dict(engine.series["p50"])[1.5] == pytest.approx(0.5)


def test_saturation_sli_per_entity_capacity():
    sim = Simulator()
    registry = MetricsRegistry()
    a = registry.counter("ofa.a.packet_ins")
    b = registry.counter("ofa.b.packet_ins")
    registry.gauge("ofa.a.packet_in_capacity", fn=lambda: 100.0)
    registry.gauge("ofa.b.packet_in_capacity", fn=lambda: 400.0)
    specs = [
        SliSpec("sat_max", "saturation", window=1.0,
                patterns=("ofa.*.packet_ins",),
                capacity="ofa.{}.packet_in_capacity", agg="max"),
        SliSpec("sat_total", "saturation", window=1.0,
                patterns=("ofa.*.packet_ins",),
                capacity="ofa.{}.packet_in_capacity", agg="total"),
    ]
    engine = _engine(sim, registry, specs)
    engine.start()

    def bump():
        a.inc(20)   # 80/s against capacity 100 -> 0.8
        b.inc(25)   # 100/s against capacity 400 -> 0.25

    for index in range(4):
        sim.schedule(0.25 * index + 0.05, bump)
    sim.run(until=1.0)
    engine.stop()
    assert engine.series["sat_max"][-1][1] == pytest.approx(0.8)
    assert engine.series["sat_total"][-1][1] == pytest.approx(180.0 / 500.0)


def test_ratio_sli_reads_healthy_without_demand():
    sim = Simulator()
    registry = MetricsRegistry()
    delivered = registry.counter("controller.packet_ins")
    generated = registry.counter("ofa.sw1.packet_ins")
    spec = SliSpec("ratio", "ratio", window=0.5,
                   patterns=("controller.packet_ins",),
                   denominator=("ofa.*.packet_ins",), min_demand=10.0)
    engine = _engine(sim, registry, [spec])
    engine.start()
    sim.schedule(0.05, lambda: (generated.inc(100), delivered.inc(25)))
    sim.run(until=0.25)
    assert engine.series["ratio"][-1][1] == pytest.approx(0.25)
    sim.run(until=2.0)  # traffic over: demand under the floor -> healthy
    engine.stop()
    assert engine.series["ratio"][-1][1] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_stop_start_does_not_duplicate_tick_chain():
    sim = Simulator()
    registry = MetricsRegistry()
    registry.counter("c")
    spec = SliSpec("r", "rate", patterns=("c",))
    engine = _engine(sim, registry, [spec])
    engine.start()
    engine.start()  # double start is a no-op
    sim.run(until=1.0)
    assert engine.ticks == 4  # t = 0.25 .. 1.0
    engine.stop()
    sim.run(until=2.0)
    assert engine.ticks == 4  # stopped: the pending tick was cancelled
    engine.start()
    sim.run(until=3.0)
    engine.stop()
    assert engine.ticks == 8  # t = 2.25 .. 3.0: one chain, not two
    assert len(engine.series["r"]) == 8


def test_engine_events_are_daemon_only():
    sim = Simulator()
    engine = _engine(sim, MetricsRegistry(),
                     [SliSpec("g", "gauge", gauge_pattern="x")])
    engine.start()
    sim.run()  # no foreground work: the engine must not hold the run
    assert sim.now == 0.0
    assert engine.ticks == 0


def test_engine_fires_rules_into_a_deterministic_timeline():
    sim = Simulator()
    registry = MetricsRegistry()
    counter = registry.counter("errors")
    spec = SliSpec("err_rate", "rate", window=0.5, patterns=("errors",))
    rules = parse_rules("errors_high: err_rate > 10 for 0.25 clear 5")
    engine = HealthEngine(sim, registry, rules=rules, slis=[spec],
                          interval=0.25)
    engine.start()
    for index in range(6):  # a burst of ~100/s between 0.5 and 1.0
        sim.schedule(0.5 + 0.1 * index, counter.inc, 10)
    sim.schedule(3.0, lambda: None)
    sim.run()
    engine.stop()
    states = [record["state"] for record in engine.timeline]
    assert "firing" in states
    assert states[-1] == "resolved"
    firings = firings_from_timeline(engine.timeline, 3.0)
    assert len(firings) == 1
    name, t0, t1 = firings[0]
    assert name == "errors_high"
    assert 0.0 < t0 < t1 <= 3.0
    lines = engine.timeline_jsonl().splitlines()
    assert [json.loads(line)["state"] for line in lines] == states
