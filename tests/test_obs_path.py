"""End-to-end control-path tracing: punt -> Packet-In -> handling ->
install, through real testbeds, plus the inspect/manifest consumers."""

import json

import pytest

from repro.obs import Observability, observed
from repro.obs import path as obs_path
from repro.obs.artifacts import ARTIFACTS, load_json, summarize_trace
from repro.obs.manifest import build_manifest, write_manifest
from repro.testbed.single_switch import SERVER_IP, build_single_switch
from repro.traffic import NewFlowSource


def traced_single_switch_run(tmp_path):
    obs = Observability(trace=True, metrics=True)
    with observed(obs):
        bed = build_single_switch(seed=5)
        NewFlowSource(bed.sim, bed.client, SERVER_IP, rate_fps=40.0).start(
            at=0.2, stop_at=1.2)
        bed.sim.run(until=2.0)
    path = tmp_path / "run.trace.jsonl"
    obs.tracer.export_jsonl(str(path))
    return obs, bed, path


def test_stage_spans_cover_the_control_path(tmp_path):
    obs, bed, _ = traced_single_switch_run(tmp_path)
    records = [r for r in obs.tracer.records() if r["t1"] is not None]
    names = {r["name"] for r in records}
    assert {obs_path.SPAN_PACKET_IN, obs_path.SPAN_OFA_QUEUE,
            obs_path.SPAN_CHANNEL, obs_path.SPAN_HANDLE,
            obs_path.SPAN_INSTALL} <= names
    journeys = [r for r in records if r["name"] == obs_path.SPAN_PACKET_IN]
    assert journeys
    for journey in journeys:
        args = journey["args"]
        assert args["switch"] == "sw1"
        assert "route" in args
        assert "handle_s" in args
        assert journey["t1"] >= journey["t0"]
    # The reactive app decides inline during dispatch.
    assert {j["args"]["route"] for j in journeys} <= {"inline", "lost"}
    # One Packet-In sent per completed journey that wasn't queue-dropped.
    sent = sum(1 for j in journeys if j["args"]["route"] != "lost")
    assert sent == bed.switch.ofa.packet_ins_sent


def test_metrics_instruments_populate(tmp_path):
    obs, bed, _ = traced_single_switch_run(tmp_path)
    metrics = obs.metrics
    assert metrics.counters["controller.packet_ins"].value > 0
    assert metrics.counters["ofa.sw1.packet_ins"].value > 0
    assert metrics.counters["ofa.sw1.installs"].value > 0
    assert "ofa.sw1.packet_in_queue" in metrics.gauges
    assert "switch.sw1.table0_entries" in metrics.gauges
    assert metrics.gauges["switch.sw1.table0_entries"].read() > 0
    latency = metrics.histograms["path.packet_in_latency_s"]
    assert latency.count > 0
    assert latency.quantile(0.5) > 0.0


def test_inspect_summarizes_stages(tmp_path):
    _, _, path = traced_single_switch_run(tmp_path)
    summary = summarize_trace(str(path))
    assert summary["records"] == summary["spans"] + summary["instants"]
    stages = summary["stages"]
    for name in (obs_path.SPAN_PACKET_IN, obs_path.SPAN_OFA_QUEUE,
                 obs_path.SPAN_CHANNEL, obs_path.SPAN_HANDLE):
        assert stages[name]["count"] > 0
        assert stages[name]["p50_ms"] <= stages[name]["p99_ms"] <= stages[name]["max_ms"]
    pktin = summary["packet_in"]
    assert pktin["count"] == stages[obs_path.SPAN_PACKET_IN]["count"]
    assert sum(pktin["routes"].values()) == pktin["count"]
    table = ARTIFACTS["trace"].sections(str(path))[0]
    assert [row[0] for row in table.rows] == sorted(stages)


@pytest.mark.slow
def test_overlay_relay_recorded_at_deployment_scale(tmp_path):
    from repro.testbed.deployment import build_deployment
    from repro.traffic import SpoofedFlood

    obs = Observability(trace=True, metrics=True)
    with observed(obs):
        dep = build_deployment(seed=3, racks=2, mesh_per_rack=1)
        server_ip = dep.servers[0].ip
        NewFlowSource(dep.sim, dep.client, server_ip, rate_fps=100.0).start(
            at=0.5, stop_at=5.0)
        SpoofedFlood(dep.sim, dep.attacker, server_ip, rate_fps=1500.0).start(
            at=1.0, stop_at=5.0)
        dep.sim.run(until=7.0)
    records = [r for r in obs.tracer.records() if r["t1"] is not None]
    relayed = [r for r in records
               if r["name"] == obs_path.SPAN_PACKET_IN and "relay" in r["args"]]
    assert relayed, "flood should push Packet-Ins through the overlay relay"
    for journey in relayed:
        assert journey["args"]["relay"] in dep.scotch.overlay.mesh
        # Attribution re-stamped the true origin switch, not the vSwitch.
        assert journey["args"]["switch"] not in dep.scotch.overlay.mesh
    # Activation instants landed on the monitor track.
    instants = [r for r in records if r["type"] == "instant"]
    assert any(r["name"] == "overlay.activate" for r in instants)
    # Per-vSwitch relay counters and per-tunnel counters populated.
    relay_counters = {n: c.value for n, c in obs.metrics.counters.items()
                      if n.startswith("overlay.relay.")}
    assert sum(relay_counters.values()) == len(relayed)
    assert any(n.startswith("overlay.tunnel.") for n in obs.metrics.counters)


def test_manifest_roundtrip(tmp_path):
    from repro.core.config import ScotchConfig
    from repro.switch.profiles import PICA8_PRONTO_3780

    manifest = build_manifest(
        command=["scotch-repro", "fig", "3", "--quick"],
        seed=42,
        config=ScotchConfig(),
        profiles=[PICA8_PRONTO_3780],
        trace_path="t.jsonl",
        chrome_trace_path="t.chrome.json",
        metrics_path="m.jsonl",
        extra={"note": "test"},
    )
    path = str(tmp_path / "manifest.json")
    write_manifest(path, manifest)
    loaded = load_json(path)
    assert loaded == json.loads(json.dumps(manifest))  # JSON-clean
    assert loaded["manifest_version"] == 1
    assert loaded["seed"] == 42
    assert loaded["outputs"]["trace_jsonl"] == "t.jsonl"
    assert loaded["profiles"][0]["name"] == PICA8_PRONTO_3780.name
    assert loaded["config"]["vswitches_per_switch"] == (
        ScotchConfig().vswitches_per_switch)
