"""Observability must not perturb the simulation.

Two contracts:

* Same seed + fresh tracer => byte-identical exported JSONL traces
  (the trace is as reproducible as the run).
* Tracing/metrics on vs off => identical experiment results (observing
  the control path must not change it).  The sampler is excluded — it
  adds daemon events by design, which is why it is opt-in.
"""

import pytest

pytestmark = pytest.mark.slow

from contextlib import nullcontext

from repro.net.tap import client_flow_failure_fraction
from repro.obs import Observability, observed
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


def run(seed, obs=None):
    """One deployment-scale flood run, optionally observed."""
    with observed(obs) if obs is not None else nullcontext():
        dep = build_deployment(seed=seed, racks=2, mesh_per_rack=1)
        sim = dep.sim
        server_ip = dep.servers[0].ip
        client = NewFlowSource(sim, dep.client, server_ip, rate_fps=100.0)
        attack = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=1500.0)
        client.start(at=0.5, stop_at=6.0)
        attack.start(at=1.0, stop_at=6.0)
        sim.run(until=8.0)
    app = dep.scotch
    return {
        "counts": app.flow_db.counts(),
        "client_failure": client_flow_failure_fraction(
            dep.client.sent_tap, dep.servers[0].recv_tap
        ),
        "packets_at_server": dep.servers[0].recv_tap.total_packets,
        "edge_pktin": dep.edge.ofa.packet_ins_sent,
        "edge_drops": dep.edge.ofa.packet_ins_dropped,
        "mods_sent": app.schedulers["edge"].mods_sent,
        "final_time_events": dep.sim.now,
    }


def test_same_seed_byte_identical_traces(tmp_path):
    paths = []
    for index in range(2):
        obs = Observability(trace=True, metrics=False)
        run(7, obs=obs)
        path = tmp_path / f"trace{index}.jsonl"
        obs.tracer.export_jsonl(str(path))
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    assert len(first) > 0
    assert first == second


def test_tracing_does_not_change_results():
    plain = run(11)
    traced = run(11, obs=Observability(trace=True, metrics=True))
    assert plain == traced


def test_profiler_does_not_change_results():
    plain = run(13)
    profiled = run(13, obs=Observability(trace=False, metrics=False, profile=True))
    assert plain == profiled
