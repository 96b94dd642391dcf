"""Regenerate the golden-master fixtures (tests/golden/golden.json).

Usage::

    PYTHONPATH=src python tests/golden/regen.py

The fixtures pin the *observable behaviour* of the simulator on fixed
seeds: SHA-256 digests of the control-path trace JSONL, the fault-action
log JSONL and the alert timeline JSONL, plus the exact (bit-identical)
model results of each golden workload.  ``tests/test_golden_master.py``
recomputes all of them on every run and fails on any difference.

The point: engine/datapath optimizations must be *behaviour preserving*.
The checked-in fixtures were generated with the pre-optimization engine;
any change to event ordering, RNG draw sequence, trace content or model
arithmetic shows up as a digest mismatch.  Only regenerate after
convincing yourself (and saying so in the commit message) that the
behaviour change is intended — an unexplained digest change is a bug.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "golden.json")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Workload 1 — pure engine: scripted schedule/cancel/daemon torture
# ----------------------------------------------------------------------
def engine_workload() -> dict:
    """A seeded, self-scheduling engine run that exercises timestamp
    ties, same-time daemon coalescing, cancellation (before/at/after the
    head), run-until resume and zero-delay self-scheduling.  The fired
    sequence is the engine's externally observable contract."""
    from repro.sim.engine import Simulator

    sim = Simulator(seed=99)
    rng = sim.rng.stream("golden")
    fired = []
    cancellable = []

    def work(tag):
        fired.append((round(sim.now, 9), tag))
        if tag < 400:
            # Quantized delays force plenty of exact timestamp ties.
            delay = round(rng.expovariate(20.0), 2)
            sim.schedule(delay, work, tag + 7)
        if tag % 11 == 0:
            event = sim.schedule(0.25, work, 1000 + tag)
            cancellable.append(event)
        if tag % 13 == 0 and cancellable:
            cancellable.pop(0).cancel()
        if tag % 17 == 0:
            sim.schedule(0.0, work, 2000 + tag)  # same-instant follow-up

    def tick():
        fired.append((round(sim.now, 9), "daemon"))
        sim.schedule(0.05, tick, daemon=True)

    for tag in range(12):
        sim.schedule(round(rng.random(), 2), work, tag)
    sim.schedule(0.05, tick, daemon=True)
    sim.run(until=1.0)
    sim.run(until=3.0)  # resume must be seamless
    for event in cancellable:
        event.cancel()
    final = sim.run(until=4.0)

    digest = sha256_text(json.dumps(fired, separators=(",", ":")))
    return {
        "fired_sha256": digest,
        "fired_count": len(fired),
        "final_time": final,
        "pending_after": sim.pending,
    }


# ----------------------------------------------------------------------
# Workload 2 — traced deployment run (trace JSONL must stay byte-stable)
# ----------------------------------------------------------------------
def traced_run(tmp_path: str) -> dict:
    """A small flood-under-Scotch run with the tracer on; digests the
    exported trace JSONL and pins the run's measured outcome."""
    from repro.net.tap import client_flow_failure_fraction
    from repro.obs import Observability, observed
    from repro.testbed.deployment import build_deployment
    from repro.traffic import NewFlowSource, SpoofedFlood

    obs = Observability(trace=True, metrics=False)
    with observed(obs):
        dep = build_deployment(seed=7)
        server_ip = dep.servers[0].ip
        NewFlowSource(dep.sim, dep.client, server_ip, rate_fps=50.0).start(
            at=0.5, stop_at=5.0)
        SpoofedFlood(dep.sim, dep.attacker, server_ip, rate_fps=800.0).start(
            at=1.0, stop_at=5.0)
        dep.sim.run(until=6.0)

    trace_path = os.path.join(tmp_path, "golden.trace.jsonl")
    records = obs.tracer.export_jsonl(trace_path)
    with open(trace_path, "rb") as handle:
        trace_digest = hashlib.sha256(handle.read()).hexdigest()
    os.unlink(trace_path)

    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=1.5, end=4.5)
    return {
        "trace_sha256": trace_digest,
        "trace_records": records,
        "model_results": {
            "client_failure": failure,
            "flows_started": len(dep.client.sent_tap.records),
            "server_flows_received": len(dep.servers[0].recv_tap.records),
            "edge_punted": dep.edge.datapath.punted,
            "edge_processed": dep.edge.datapath.processed,
            "attacker_sent": dep.attacker.sent_tap.total_packets,
            "final_time": dep.sim.now,
        },
    }


# ----------------------------------------------------------------------
# Workload 3 — mini chaos run (fault log + alert timeline JSONL)
# ----------------------------------------------------------------------
def mini_chaos() -> dict:
    """A compact chaos scenario: every JSONL the chaos/health stack
    emits must stay byte-identical, and the recovery numbers
    bit-identical.  Runs with ``postmortem=True`` — the collector is
    read-only, so the fault/alert digests are the same either way (the
    bit-identity contract) while the bundle digest pins the postmortem
    format itself."""
    from repro.faults import FaultPlan, run
    from repro.obs.postmortem import bundle_jsonl
    from repro.obs.scorecard import scorecard_json

    plan = FaultPlan()
    plan.channel_loss(2.0, "edge", duration=1.0, loss=0.08, duplicate=0.02,
                      jitter=0.5e-3, direction="both")
    plan.ofa_stall(3.0, "mv1_0", duration=0.5)
    plan.vswitch_crash(4.0, "mv0_0", down_for=1.0)
    plan.controller_outage(5.5, duration=0.5)

    report = run("chaos", seed=3, duration=9.0, client_rate=50.0,
                 attack_rate=600.0, plan=plan, health=True,
                 postmortem=True)
    return {
        "fault_log_sha256": sha256_text(report.fault_log_jsonl),
        "fault_actions": len(report.fault_log),
        "alert_timeline_sha256": sha256_text(report.alert_timeline_jsonl),
        "alert_transitions": len(report.alert_timeline),
        "scorecard_sha256": sha256_text(scorecard_json(report.scorecard)),
        "postmortem_sha256": sha256_text(
            "".join(bundle_jsonl(b) for b in report.postmortems)),
        "postmortem_bundles": len(report.postmortems),
        "model_results": {
            "failure_during_faults": report.failure_during_faults,
            "failure_post_recovery": report.failure_post_recovery,
            "flows_started": report.flows_started,
            "faults_injected": report.faults_injected,
            "failures_detected": report.failures_detected,
            "recoveries_detected": report.recoveries_detected,
            "resyncs": report.resyncs,
            "reliable": report.reliable,
            "channel_drops": report.channel_drops,
            "channel_duplicates": report.channel_duplicates,
            "violations": len(report.violations),
        },
    }


# ----------------------------------------------------------------------
# Workload 4 — controller pool: chaos gauntlet + autoscale lifecycle
# ----------------------------------------------------------------------
def pool_runs() -> dict:
    """The two pool scenarios on seed 1: the pool event log, the fault
    log and the detection scorecard of the chaos gauntlet (health on —
    the engine is read-only, so the logs are the same either way), and
    the event log of the flash-crowd autoscale lifecycle."""
    from repro.faults import run
    from repro.obs.scorecard import scorecard_json

    chaos = run("pool_chaos", seed=1, health=True)
    autoscale = run("pool_autoscale", seed=1)
    return {
        "chaos_events_sha256": sha256_text(chaos.pool_events_jsonl),
        "chaos_events": len(chaos.pool_events),
        "chaos_fault_log_sha256": sha256_text(chaos.fault_log_jsonl),
        "chaos_scorecard_sha256": sha256_text(scorecard_json(chaos.scorecard)),
        "chaos_packet_ins": chaos.packet_ins_total,
        "autoscale_events_sha256": sha256_text(autoscale.pool_events_jsonl),
        "autoscale_events": len(autoscale.pool_events),
        "autoscale_packet_ins": autoscale.packet_ins_total,
    }


# ----------------------------------------------------------------------
# Workload 5 — sampled-telemetry scorecard sweep (poll + 1-in-10)
# ----------------------------------------------------------------------
def telemetry_card() -> dict:
    """A small accuracy/overhead sweep; ``controller_cpu_share`` is the
    one wall-clock-derived field, zeroed so the canonical JSON digest
    pins everything else."""
    from repro.telemetry.scorecard import (
        run_telemetry_scorecard,
        telemetry_scorecard_json,
    )

    card = run_telemetry_scorecard(seed=1, duration=4.0, attack_rate=500.0,
                                   elephants=3, mice=3, periods=(10,))
    for point in card.runs:
        point.measures["controller_cpu_share"] = 0.0
    return {
        "scorecard_sha256": sha256_text(telemetry_scorecard_json(card)),
        "runs": len(card.runs),
    }


# ----------------------------------------------------------------------
# Workload 6 — one short point per figure/ablation runner
# ----------------------------------------------------------------------
def figure_points() -> dict:
    """The bit-identical result of one short point of every runner in
    ``repro.testbed.experiments`` (both schemes where the runner picks a
    deployment by scheme name), so a refactor of the runners' shared
    parts — scheme construction, flood schedule, failure metric — cannot
    move a number."""
    from dataclasses import asdict

    from repro.obs.metrics import mean, percentile
    from repro.switch.profiles import PICA8_PRONTO_3780
    from repro.testbed import experiments as ex

    points = {
        "fig3": ex.fig3_point(PICA8_PRONTO_3780, 2000, duration=2.0),
        "fig4": asdict(ex.fig4_point(300, duration=2.0)),
        "fig9": ex.fig9_point(800, duration=2.0),
        "fig10": ex.fig10_point(1400, 1000, duration=1.0),
        "fig12": asdict(ex.fig12_run(elephant_packets=1000, elephant_pps=400.0)),
        "fig13": ex.fig13_point(1, offered_rate=5000.0, duration=1.0),
        "install_rate": asdict(ex.install_rate_run(400, duration=3.0)),
        "lb_flow_hash": ex.lb_run(False),
        "lb_random_spray": ex.lb_run(True),
    }
    for scheme in ("vanilla", "scotch"):
        points[f"fig11_{scheme}"] = asdict(ex.fig11_run(scheme, duration=3.0))
        points[f"fig15_{scheme}"] = asdict(ex.fig15_run(scheme, duration=4.0))
        dep, failure = ex.tcam_run(scheme == "scotch", until=16.0)
        points[f"tcam_{scheme}"] = {
            "failure": failure,
            "table_full": dep.edge.ofa.table_full_failures,
            "routes": dep.scotch.flow_db.counts() if dep.scotch else {},
        }
    for scheme in ("vanilla", "proactive", "drop", "dedicated", "scotch"):
        points[f"ablation_{scheme}"] = asdict(ex.ablation_run(scheme, duration=2.0))
    direct, overlay = ex.fig14_path(False, flows=30), ex.fig14_path(True, flows=30)
    points["fig14"] = {
        "summary": {
            "direct_mean": mean(direct),
            "direct_p99": percentile(direct, 99),
            "overlay_mean": mean(overlay),
            "overlay_p99": percentile(overlay, 99),
            "stretch_mean": mean(overlay) / mean(direct),
        },
        "direct_sha256": sha256_text(json.dumps(direct)),
        "overlay_sha256": sha256_text(json.dumps(overlay)),
    }
    return points


# ----------------------------------------------------------------------
# Workload 7 — the scale and WAN underlays under short load
# ----------------------------------------------------------------------
def topologies() -> dict:
    """A small scale overlay under a short flash crowd and a 3-site WAN
    under a short flood: the event count, route split, per-target
    delivery, tunnel count and controller registration order pin how
    each builder lays out and wires its deployment."""
    from repro.testbed.deployment import build_scale_overlay, build_wan_deployment
    from repro.traffic import NewFlowSource, SpoofedFlood

    def pin(dep) -> dict:
        return {
            "events_fired": dep.sim.events_fired,
            "routes": dep.scotch.flow_db.counts(),
            "target_packets": [t.recv_tap.total_packets for t in dep.targets],
            "tunnels": len(dep.overlay.fabric.tunnels),
            "datapaths": list(dep.controller.datapaths),
        }

    scale = build_scale_overlay(seed=1, host_vswitches=24, mesh=4, tors=2,
                                targets=4)
    sources = [NewFlowSource(scale.sim, scale.client, target.ip,
                             rate_fps=40.0, rng_name=f"scale:{target.name}")
               for target in scale.targets]
    for source in sources:
        source.start(at=0.25, stop_at=2.0)
    scale.sim.schedule_at(0.75, lambda: [setattr(s, "rate_fps", 400.0)
                                         for s in sources])
    scale.sim.run(until=2.5)

    wan = build_wan_deployment(sites=3, seed=2)
    target = wan.servers[1]
    NewFlowSource(wan.sim, wan.client, target.ip, rate_fps=50.0).start(
        at=0.5, stop_at=4.0)
    SpoofedFlood(wan.sim, wan.attacker, target.ip, rate_fps=1500.0).start(
        at=1.0, stop_at=4.0)
    wan.sim.run(until=5.0)
    return {"scale": pin(scale), "wan": pin(wan)}


def build_golden() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        return {
            "_comment": "Golden-master fixtures. Regenerate ONLY for an "
                        "intended behaviour change: "
                        "PYTHONPATH=src python tests/golden/regen.py",
            "engine": engine_workload(),
            "traced_run": traced_run(tmp),
            "mini_chaos": mini_chaos(),
            "pool": pool_runs(),
            "telemetry": telemetry_card(),
            "figures": figure_points(),
            "topologies": topologies(),
            "schemas": schema_versions(),
        }


def schema_versions() -> dict:
    """Pin every JSONL schema version: bumping one in
    repro.obs.artifacts without regenerating here is a test failure, so
    format changes stay deliberate."""
    from repro.obs.artifacts import ARTIFACTS

    return {kind: entry.version for kind, entry in sorted(ARTIFACTS.items())
            if entry.jsonl}


def main() -> int:
    golden = build_golden()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    for section, data in golden.items():
        if isinstance(data, dict):
            for key, value in data.items():
                if key.endswith("sha256"):
                    print(f"  {section}.{key} = {value[:16]}…")
    return 0


if __name__ == "__main__":
    sys.exit(main())
