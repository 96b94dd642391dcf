"""Unit tests for the sampled-telemetry pipeline: the per-vSwitch
packet sampler, the flow estimator, and the mode-selectable
SamplingStatsService."""


import pytest

from repro.controller.base_app import BaseApp
from repro.controller.controller import OpenFlowController
from repro.core.config import (
    HYBRID_POLL_MULTIPLIER,
    STATS_INTERVAL,
    VSWITCH_FLOW_TABLE,
    ScotchConfig,
)
from repro.core.migration import OVERLAY_COOKIE
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.openflow.messages import SampleRecord, SampleReport
from repro.sim.engine import Simulator
from repro.switch.profiles import OPEN_VSWITCH
from repro.switch.switch import VSwitch
from repro.telemetry import FlowEstimator, PacketSampler, SamplingStatsService


class StatsRecorder(BaseApp):
    def __init__(self):
        super().__init__()
        self.replies = []
        self.sample_reports = []

    def stats_reply(self, dpid, message):
        self.replies.append((dpid, message))

    def sample_report(self, dpid, message):
        self.sample_reports.append((dpid, message))


def build(seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim)
    controller = OpenFlowController(sim, net)
    sw = net.add(VSwitch(sim, "s0", OPEN_VSWITCH))
    controller.register_switch(sw)
    app = StatsRecorder()
    controller.add_app(app)
    return sim, net, controller, sw, app


def packet(port=1000, size=500, count=1):
    return Packet("10.0.0.1", "10.0.1.1", 6, port, 80, size=size, count=count)


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
def test_sampler_validates_parameters():
    sim, net, controller, sw, app = build()
    with pytest.raises(ValueError):
        PacketSampler(sim, sw, period=0)


def test_sampler_rate_is_exactly_one_in_n():
    sim, net, controller, sw, app = build()
    sampler = PacketSampler(sim, sw, period=10)
    for _ in range(1000):
        sampler.observe(packet())
    assert sampler.packets_seen == 1000
    # Systematic sampling: exactly floor or ceil of N/period, phase-
    # dependent — never a binomial spread.
    assert sampler.samples_taken in (100, 101)


def test_sampler_period_one_samples_everything():
    sim, net, controller, sw, app = build()
    sampler = PacketSampler(sim, sw, period=1)
    for _ in range(25):
        sampler.observe(packet(count=1))
    sampler.observe(packet(count=5))
    assert sampler.samples_taken == 30


def test_sampler_trains_equivalent_to_singles():
    # Two samplers over the same seed + switch name share the RNG phase;
    # feeding one packet trains and the other the equivalent singles
    # must produce identical sample counts (exact count-based scheme).
    results = []
    for trains in (False, True):
        sim, net, controller, sw, app = build(seed=7)
        sampler = PacketSampler(sim, sw, period=10)
        if trains:
            for _ in range(40):
                sampler.observe(packet(count=25))
        else:
            for _ in range(1000):
                sampler.observe(packet(count=1))
        results.append((sampler.packets_seen, sampler.samples_taken))
    assert results[0] == results[1]
    assert results[0][0] == 1000


def test_sampler_deterministic_per_seed():
    counts = []
    for _ in range(2):
        sim, net, controller, sw, app = build(seed=11)
        sampler = PacketSampler(sim, sw, period=10)
        for index in range(500):
            sampler.observe(packet(port=1000 + index % 7))
        counts.append((sampler.samples_taken, sampler.flush().records))
    assert counts[0][0] == counts[1][0]
    assert [
        (r.key, r.samples, r.sampled_bytes) for r in counts[0][1]
    ] == [(r.key, r.samples, r.sampled_bytes) for r in counts[1][1]]


def test_sampler_flush_exports_empty_liveness_report():
    sim, net, controller, sw, app = build()
    sampler = PacketSampler(sim, sw, period=10)
    sampler.start()
    sim.run(until=0.6)
    # Two ticks, no traffic: two empty reports still reached the
    # controller (the estimator's liveness heartbeat).
    assert sampler.reports_sent == 2
    assert len(app.sample_reports) == 2
    for dpid, report in app.sample_reports:
        assert dpid == "s0"
        assert report.records == []
        assert report.period == 10
    assert controller.sample_reports_received == 2


def test_sampler_stop_cancels_export_tick():
    sim, net, controller, sw, app = build()
    sampler = PacketSampler(sim, sw, period=10)
    sampler.start()
    sim.run(until=0.3)
    sampler.stop()
    sim.run(until=1.0)
    assert sampler.reports_sent == 1


def test_sampler_aggregates_per_flow_bytes():
    sim, net, controller, sw, app = build()
    sampler = PacketSampler(sim, sw, period=1)
    for _ in range(3):
        sampler.observe(packet(port=1000, size=200))
    sampler.observe(packet(port=2000, size=700))
    report = sampler.flush()
    by_key = {r.key: r for r in report.records}
    k1 = packet(port=1000).flow_key
    k2 = packet(port=2000).flow_key
    assert by_key[k1].samples == 3
    assert by_key[k1].sampled_bytes == 600
    assert by_key[k2].samples == 1
    assert by_key[k2].sampled_bytes == 700


# ----------------------------------------------------------------------
# Estimator
# ----------------------------------------------------------------------
def report_for(key, samples, sampled_bytes, period=10, t0=0.0):
    return SampleReport(
        datapath_id="s0", period=period,
        records=[SampleRecord(key=key, samples=samples,
                              sampled_bytes=sampled_bytes)],
        window_start=t0)


def test_estimator_scaling_and_confidence():
    est = FlowEstimator()
    key = FlowKey("10.0.0.1", "10.0.1.1", 6, 1000, 80)
    updated = est.ingest("s0", report_for(key, samples=6, sampled_bytes=3000), now=0.25)
    assert len(updated) == 1
    estimate = updated[0]
    assert estimate.est_packets == 60
    # A second window accumulates.
    est.ingest("s0", report_for(key, samples=4, sampled_bytes=2000,
                                t0=0.25), now=0.5)
    assert est.get("s0", key).est_packets == 100
    assert est.get("s0", key).first_seen == 0.0
    assert est.get("s0", key).last_seen == 0.5


def test_estimator_tracks_dpids_independently_and_prunes():
    est = FlowEstimator()
    key = FlowKey("10.0.0.1", "10.0.1.1", 6, 1000, 80)
    est.ingest("s0", report_for(key, 2, 1000), now=0.25)
    est.ingest("s1", report_for(key, 5, 2500), now=1.0)
    assert est.get("s0", key).est_packets == 20
    assert est.get("s1", key).est_packets == 50
    dropped = est.prune(older_than=0.5)
    assert dropped == 1
    assert est.get("s0", key) is None
    assert est.get("s1", key) is not None


# ----------------------------------------------------------------------
# Service modes
# ----------------------------------------------------------------------
def test_config_validates_telemetry_knobs():
    with pytest.raises(ValueError):
        ScotchConfig(stats_mode="bogus")
    with pytest.raises(ValueError):
        ScotchConfig(sampling_period=0)


def test_poll_mode_is_a_plain_stats_poller():
    sim, net, controller, sw, app = build()
    service = SamplingStatsService(
        controller, net, targets=lambda: ["s0"],
        config=ScotchConfig(stats_mode="poll"))
    assert service.poller is not None
    assert service.poller.interval == STATS_INTERVAL
    assert service.poller.table_id == VSWITCH_FLOW_TABLE
    assert not service.sampling
    service.start()
    sim.run(until=1.5)
    assert service.polls_sent == 1
    assert sw.datapath.sampler is None


def test_off_mode_measures_nothing():
    sim, net, controller, sw, app = build()
    service = SamplingStatsService(
        controller, net, targets=lambda: ["s0"],
        config=ScotchConfig(stats_mode="off"))
    service.start()
    sim.run(until=2.0)
    assert service.poller is None
    assert service.polls_sent == 0
    assert service.samplers == {}
    assert sw.datapath.sampler is None
    assert app.replies == []


def test_hybrid_mode_slows_the_safety_net_poll():
    sim, net, controller, sw, app = build()
    config = ScotchConfig(stats_mode="hybrid")
    service = SamplingStatsService(
        controller, net, targets=lambda: ["s0"], config=config)
    assert service.sampling
    assert service.poller.interval == STATS_INTERVAL * HYBRID_POLL_MULTIPLIER
    service.start()
    assert sw.datapath.sampler is service.samplers["s0"]


def test_sample_mode_synthesizes_migrator_shaped_replies():
    sim, net, controller, sw, app = build()
    config = ScotchConfig(stats_mode="sample", sampling_period=10)
    service = SamplingStatsService(
        controller, net, targets=lambda: ["s0"], config=config)
    service.start()
    assert service.poller is None
    key = FlowKey("10.0.0.1", "10.0.1.1", 6, 1000, 80)
    service.handle_sample_report("s0", report_for(key, samples=30,
                                                  sampled_bytes=15000))
    assert service.reports_received == 1
    assert len(app.replies) == 1
    dpid, reply = app.replies[0]
    assert dpid == "s0"
    entry = reply.entries[0]
    # The exact shape the §5.3 migrator filters on.
    assert entry.cookie == OVERLAY_COOKIE
    assert entry.table_id == VSWITCH_FLOW_TABLE
    assert entry.match.is_exact_five_tuple
    assert FlowKey(*entry.match.five_tuple_key()) == key
    assert entry.packets == 300
    # An empty liveness report updates staleness but emits no reply.
    service.handle_sample_report("s0", SampleReport(
        datapath_id="s0", period=10, records=[]))
    assert len(app.replies) == 1
    assert service.reports_received == 2


def test_sample_mode_end_to_end_through_the_channel():
    sim, net, controller, sw, app = build()
    config = ScotchConfig(stats_mode="sample", sampling_period=1)
    service = SamplingStatsService(
        controller, net, targets=lambda: ["s0"], config=config)

    # The ScotchApp role: forward arriving sample exports to the service.
    class Forwarder(BaseApp):
        def sample_report(self, dpid, message):
            service.handle_sample_report(dpid, message)

    controller.add_app(Forwarder())
    service.start()
    sampler = service.samplers["s0"]
    # Traffic through the datapath hook -> timer export -> controller
    # dispatch -> synthetic reply, all inside the simulation.
    sim.schedule_at(0.1, sampler.observe, packet(port=1000, size=400))
    sim.schedule_at(0.15, sampler.observe, packet(port=1000, size=400))
    sim.run(until=0.6)
    assert controller.sample_reports_received >= 1
    assert len(app.replies) >= 1
    entry = app.replies[0][1].entries[0]
    assert entry.packets == 2  # period 1: estimate == truth


def test_dynamic_targets_detach_and_reattach_samplers():
    sim, net, controller, sw, app = build()
    targets = ["s0"]
    config = ScotchConfig(stats_mode="sample")
    service = SamplingStatsService(
        controller, net, targets=lambda: list(targets), config=config)
    service.start()
    sampler = service.samplers["s0"]
    assert sw.datapath.sampler is sampler
    targets.clear()
    sim.run(until=0.6)
    assert sw.datapath.sampler is None
    assert not sampler._timer.running
    targets.append("s0")
    sim.run(until=1.1)
    assert sw.datapath.sampler is service.samplers["s0"]
    assert service.samplers["s0"]._timer.running


def test_service_stop_detaches_everything():
    sim, net, controller, sw, app = build()
    config = ScotchConfig(stats_mode="sample")
    service = SamplingStatsService(
        controller, net, targets=lambda: ["s0"], config=config)
    service.start()
    assert sw.datapath.sampler is not None
    service.stop()
    assert sw.datapath.sampler is None
    reports_before = controller.sample_reports_received
    sim.run(until=2.0)
    assert controller.sample_reports_received == reports_before
