"""Whole-system determinism: same seed => bit-identical outcomes.

The simulator's reproducibility contract is what makes the benchmark
figures stable and regressions detectable; this exercises it at
deployment scale across every stochastic component (traffic, OFA
insertion loss, scheduler jitter, group hashing).
"""

import pytest

pytestmark = pytest.mark.slow

from repro.net.tap import client_flow_failure_fraction
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


def run(seed):
    dep = build_deployment(seed=seed, racks=2, mesh_per_rack=1)
    sim = dep.sim
    server_ip = dep.servers[0].ip
    client = NewFlowSource(sim, dep.client, server_ip, rate_fps=100.0)
    attack = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=1500.0)
    client.start(at=0.5, stop_at=8.0)
    attack.start(at=1.0, stop_at=8.0)
    sim.run(until=10.0)
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


def test_same_seed_identical_runs():
    assert run(42) == run(42)


def test_different_seeds_differ():
    a, b = run(1), run(2)
    # Aggregate rates are similar but exact event counts differ.
    assert a != b
