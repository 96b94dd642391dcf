"""Postmortem bundles: capture on alert/invariant triggers, bounded
collection, deterministic serialization, and the chaos-run byte-identity
contract (same seed => byte-identical bundle files)."""

import json

import pytest

import repro.faults.scenario as scenario_module
from repro.faults import FaultPlan, run
from repro.faults.invariants import Violation
from repro.obs import Observability, observed
from repro.obs import postmortem as postmortem_module
from repro.obs.flight import FlightRecorder
from repro.obs.postmortem import (
    PostmortemCollector,
    bundle_filename,
    bundle_jsonl,
    export_bundles,
    open_faults,
    read_bundle,
)
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# open_faults
# ----------------------------------------------------------------------
def test_open_faults_tracks_windows():
    log = [
        {"t": 1.0, "kind": "channel_loss", "target": "edge", "phase": "inject",
         "duration": 2.0},
        {"t": 1.5, "kind": "vswitch_crash", "target": "mv0", "phase": "down"},
        {"t": 2.0, "kind": "vswitch_crash", "target": "mv0", "phase": "up"},
        {"t": 2.5, "kind": "controller_outage", "target": "controller",
         "phase": "inject"},
    ]
    # At t=2.6: the loss window is still open (until 3.0), the crash has
    # healed, the outage has no duration so it stays open until cleared.
    assert open_faults(log, 2.6) == [
        {"kind": "channel_loss", "target": "edge", "since": 1.0},
        {"kind": "controller_outage", "target": "controller", "since": 2.5},
    ]
    # At t=3.5 the self-expiring loss window has closed.
    assert open_faults(log, 3.5) == [
        {"kind": "controller_outage", "target": "controller", "since": 2.5},
    ]
    # Future actions are ignored.
    assert open_faults(log, 0.5) == []


# ----------------------------------------------------------------------
# Collector mechanics (bare simulator, synthetic triggers)
# ----------------------------------------------------------------------
def _alert(name, state, t, **extra):
    return {"alert": name, "state": state, "t": t, **extra}


def test_collector_bundles_on_firing_and_tracks_context():
    sim = Simulator()
    sim.enable_provenance()
    flight = FlightRecorder()
    flight.bind(sim)
    collector = PostmortemCollector(sim, flight=flight,
                                    context={"seed": 9, "scenario": "unit"})

    def fire():
        collector.on_alert(_alert("hot", "firing", sim.now,
                                  sli="err_rate", value=4.0,
                                  severity="warning"))

    def violate():
        collector.on_violation(Violation(sim.now, "black_hole", "mv0 stale"))

    def resolve():
        collector.on_alert(_alert("hot", "resolved", sim.now))
        collector.on_violation(Violation(sim.now, "late", "after resolve"))

    sim.schedule(1.0, fire)
    sim.schedule(2.0, violate)
    sim.schedule(3.0, resolve)
    sim.run()

    assert [b["trigger"]["kind"] for b in collector.bundles] == [
        "alert", "invariant", "invariant"]
    first, second, third = collector.bundles
    assert first["trigger"]["name"] == "hot"
    assert first["trigger"]["t"] == 1.0
    assert first["trigger"]["detail"] == {"sli": "err_rate", "value": 4.0,
                                          "severity": "warning"}
    # The triggering simulator event and its ancestry are captured.
    assert first["trigger"]["event"] == [0, 0]
    assert first["ancestry"][0]["callback"].endswith("<locals>.fire")
    assert first["context"] == {"seed": 9, "scenario": "unit"}
    # While "hot" fires, it appears in later bundles' context...
    assert second["alerts_firing"] == [{"alert": "hot", "since": 1.0}]
    assert second["trigger"]["detail"] == {"detail": "mv0 stale"}
    # ...and disappears after it resolves.
    assert third["alerts_firing"] == []
    # The flight window froze the dispatch history up to each trigger.
    assert [e["t"] for e in first["flight"]["events"]] == [1.0]


def test_collector_caps_bundles_and_counts_drops(monkeypatch):
    monkeypatch.setattr(postmortem_module, "MAX_BUNDLES", 2)
    sim = Simulator()
    collector = PostmortemCollector(sim)
    for index in range(5):
        collector.on_violation(Violation(float(index), "inv", "d"))
    assert len(collector.bundles) == 2
    assert collector.dropped == 3


def test_collector_without_flight_or_provenance_degrades_cleanly():
    sim = Simulator()
    collector = PostmortemCollector(sim)
    collector.on_violation(Violation(0.0, "inv", "d"))
    (bundle,) = collector.bundles
    assert bundle["ancestry"] == []
    assert bundle["trigger"]["event"] is None
    assert bundle["flight"] == {"events": [], "spans": [],
                                "metric_deltas": {}}


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def _sample_bundle():
    sim = Simulator()
    sim.enable_provenance()
    flight = FlightRecorder()
    flight.bind(sim)
    collector = PostmortemCollector(
        sim, flight=flight, context={"seed": 1},
    )
    sim.schedule(1.0, collector.on_violation,
                 Violation(1.0, "black hole!", "mv0"))
    sim.run()
    (bundle,) = collector.bundles
    return bundle


def test_bundle_jsonl_roundtrips_through_read_bundle(tmp_path):
    bundle = _sample_bundle()
    text = bundle_jsonl(bundle)
    first_line = json.loads(text.splitlines()[0])
    assert first_line == {"type": "schema", "schema": "postmortem",
                          "version": 1}
    (path,) = export_bundles([bundle], str(tmp_path / "pm"))
    loaded = read_bundle(path)
    assert loaded["trigger"] == bundle["trigger"]
    assert loaded["ancestry"] == bundle["ancestry"]
    assert loaded["flight"] == bundle["flight"]
    assert loaded["context"] == bundle["context"]


def test_bundle_filename_is_sanitized():
    bundle = _sample_bundle()
    name = bundle_filename(bundle)
    assert name == "postmortem-000-invariant-black_hole_.jsonl"


def test_postmortem_run_hands_the_tracer_back(monkeypatch):
    """A postmortem run feeds its own flight recorder from an enabled
    outer tracer only while it runs: afterwards the tracer's ``flight``
    is what it was, and a later run under the same tracer leaves the
    finished run's span ring alone."""
    recorders = []

    class Recorder(FlightRecorder):
        def __init__(self):
            super().__init__()
            recorders.append(self)

    monkeypatch.setattr(scenario_module, "FlightRecorder", Recorder)
    small_scale = dict(seed=3, duration=1.0, host_vswitches=6, mesh=2,
                       tors=2, targets=2)
    obs = Observability(trace=True)
    with observed(obs):
        prior = obs.tracer.flight
        run("scale", postmortem=True, **small_scale)
        (first,) = recorders
        assert first.spans, "the traced run must feed its recorder"
        assert obs.tracer.flight is prior
        ring = list(first.spans)
        run("scale", **small_scale)
        assert list(first.spans) == ring
        assert obs.tracer.flight is prior


# ----------------------------------------------------------------------
# Chaos integration: deterministic bundles, byte-identical across runs
# ----------------------------------------------------------------------
def _small_chaos():
    plan = FaultPlan()
    plan.channel_loss(1.5, "edge", duration=1.0, loss=0.08, duplicate=0.02,
                      jitter=0.004)
    plan.ofa_stall(3.0, "edge", duration=0.8)
    return run("chaos", seed=3, duration=6.0, client_rate=50.0,
                     attack_rate=600.0, plan=plan, health=True,
                     postmortem=True)


@pytest.mark.slow
def test_same_seed_chaos_bundles_are_byte_identical(tmp_path):
    texts = []
    for index in range(2):
        report = _small_chaos()
        assert report.postmortem_enabled
        assert report.postmortems, "the gauntlet must trigger bundles"
        directory = str(tmp_path / f"run{index}")
        paths = export_bundles(report.postmortems, directory)
        texts.append([open(p, "rb").read() for p in paths])
    assert texts[0] == texts[1]
    assert all(blob for blob in texts[0])


@pytest.mark.slow
def test_chaos_bundles_capture_ancestry_and_fault_context():
    report = _small_chaos()
    for bundle in report.postmortems:
        assert bundle["trigger"]["kind"] in ("alert", "invariant")
        assert bundle["ancestry"], "provenance must be threaded through"
        assert bundle["flight"]["events"], "flight ring must be attached"
        assert bundle["context"]["seed"] == 3
    # The ofa_stall window is visible from a bundle triggered inside it.
    stalled = [b for b in report.postmortems
               if any(f["kind"] == "ofa_stall" for f in b["faults_open"])]
    in_window = [b for b in report.postmortems
                 if 3.0 <= b["trigger"]["t"] < 3.8]
    assert stalled == in_window
