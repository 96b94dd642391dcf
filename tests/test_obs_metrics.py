"""Tests for counters/gauges/histograms and the daemon sampler."""

import pytest

from repro.obs.artifacts import read_jsonl
from repro.obs.metrics import (
    COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
    MetricsSampler,
    bucket_quantile,
    prometheus_name,
)
from repro.sim.engine import Simulator


def test_counter_get_or_create():
    registry = MetricsRegistry()
    registry.counter("x").inc()
    registry.counter("x").inc(2)
    assert registry.counters["x"].value == 3


def test_gauge_callback_and_set():
    registry = MetricsRegistry()
    backing = [5]
    gauge = registry.gauge("depth", fn=lambda: backing[0])
    assert gauge.read() == 5.0
    backing[0] = 9
    assert gauge.read() == 9.0
    plain = registry.gauge("plain")
    plain.set(2.5)
    assert plain.read() == 2.5


def test_gauge_reregistration_rebinds_callback():
    registry = MetricsRegistry()
    registry.gauge("g", fn=lambda: 1)
    registry.gauge("g", fn=lambda: 2)
    assert registry.gauge("g").read() == 2.0


def test_histogram_stats():
    h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 50.0, 500.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == 555.5
    assert h.min == 0.5
    assert h.max == 500.0
    assert h.mean() == pytest.approx(138.875)
    assert h.counts == [1, 1, 1, 1]
    assert h.quantile(0.25) == 1.0
    assert h.quantile(1.0) == 500.0  # top bucket reports observed max


def test_quantile_edges_are_exact_and_clamped():
    h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
    for v in (2.0, 3.0, 4.0):
        h.observe(v)
    assert h.quantile(0.0) == 2.0   # exact observed min
    assert h.quantile(1.0) == 4.0   # exact observed max
    # All values fall in the (1, 10] bucket whose bound is 10; the clamp
    # keeps mid quantiles inside the observed [min, max] range.
    assert h.quantile(0.5) == 4.0
    assert Histogram("empty").quantile(0.5) == 0.0


def test_bucket_quantile_without_known_extremes():
    # Mass in the +inf overflow bucket: falls back to the last bound
    # (or the known max when provided).
    assert bucket_quantile((1.0, 2.0), (0, 0, 5), 0.5) == 2.0
    assert bucket_quantile((1.0, 2.0), (0, 0, 5), 0.5, hi=9.0) == 9.0
    assert bucket_quantile((1.0, 2.0), (3, 2, 0), 0.5) == 1.0
    assert bucket_quantile((1.0,), (0, 0), 0.5) == 0.0


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("bad", buckets=())


def test_sampler_ticks_on_daemon_events():
    sim = Simulator()
    registry = MetricsRegistry()
    registry.counter("events").inc(4)
    registry.gauge("g", fn=lambda: 7)
    sampler = MetricsSampler(sim, registry, interval=1.0, run=2)
    sampler.start()
    sim.schedule(3.5, lambda: None)  # foreground work defines the horizon
    sim.run()
    sampler.stop()
    assert sampler.ticks == 3  # t=1,2,3 (daemon events end with the work)
    assert registry.samples[0] == (2, 1.0, "g", 7.0)
    assert registry.samples[1] == (2, 1.0, "events", 4.0)


def test_sampler_stop_start_does_not_duplicate_tick_chain():
    sim = Simulator()
    registry = MetricsRegistry()
    registry.counter("c")
    sampler = MetricsSampler(sim, registry, interval=1.0)
    sampler.start()
    sampler.start()  # double start is a no-op
    sim.schedule(2.5, lambda: None)
    sim.run()
    assert sampler.ticks == 2  # t = 1, 2
    sampler.stop()
    sampler.start()  # must cancel the old chain, not run two in parallel
    sim.schedule(2.5, lambda: None)
    sim.run()
    sampler.stop()
    assert sampler.ticks == 4  # t = 3.5, 4.5 only
    # One sample per (tick, instrument): a duplicated chain would double
    # this.
    assert len(registry.samples) == 4


def test_sampler_rejects_bad_interval():
    with pytest.raises(ValueError):
        MetricsSampler(Simulator(), MetricsRegistry(), interval=0.0)


def test_export_jsonl(tmp_path):
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.gauge("g").set(1.5)
    registry.histogram("h", buckets=COUNT_BUCKETS).observe(3)
    registry.sample(now=1.0, run=0)
    path = str(tmp_path / "m.jsonl")
    lines = registry.export_jsonl(path)
    records = read_jsonl(path)
    assert len(records) == lines == 5  # 2 samples + counter + gauge + histogram
    by_type = {}
    for record in records:
        by_type.setdefault(record["type"], []).append(record)
    assert by_type["counter"][0] == {"type": "counter", "name": "c", "value": 2}
    assert by_type["gauge"][0] == {"type": "gauge", "name": "g", "value": 1.5}
    hist = by_type["histogram"][0]
    assert hist["count"] == 1 and hist["min"] == 3 and hist["max"] == 3
    assert len(by_type["sample"]) == 2
    # The exported bucket counts round-trip into the shared quantile
    # helper (what the metrics-file inspector does).
    assert bucket_quantile(hist["buckets"], hist["counts"], 0.5,
                           lo=hist["min"], hi=hist["max"]) == 3


def test_prometheus_text_format(tmp_path):
    registry = MetricsRegistry()
    registry.counter("ofa.sw1.packet_ins").inc(3)
    registry.gauge("queue.depth").set(2.0)
    hist = registry.histogram("lat", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        hist.observe(v)
    text = registry.to_prometheus()
    assert "# TYPE scotch_ofa_sw1_packet_ins_total counter" in text
    assert "scotch_ofa_sw1_packet_ins_total 3" in text
    assert "# TYPE scotch_queue_depth gauge" in text
    assert "scotch_queue_depth 2" in text
    # Histogram buckets are cumulative and end with +Inf == count.
    assert 'scotch_lat_bucket{le="0.1"} 1' in text
    assert 'scotch_lat_bucket{le="1"} 2' in text
    assert 'scotch_lat_bucket{le="+Inf"} 3' in text
    assert "scotch_lat_count 3" in text
    assert "scotch_lat_sum" in text
    path = str(tmp_path / "m.prom")
    lines = registry.export_prometheus(path)
    with open(path) as handle:
        assert handle.read() == text
    assert lines == text.count("\n")


def test_prometheus_name_sanitization():
    assert prometheus_name("ofa.sw1.packet_ins") == "scotch_ofa_sw1_packet_ins"
    assert prometheus_name("a-b c") == "scotch_a_b_c"
    assert prometheus_name("3com") == "scotch__3com"
