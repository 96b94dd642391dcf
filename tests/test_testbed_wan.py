"""Tests for the wide-area deployment (§4.1's WAN variant)."""

import pytest

pytestmark = pytest.mark.slow

from repro.net.tap import client_flow_failure_fraction
from repro.testbed.deployment import build_wan_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


def test_construction_shape():
    dep = build_wan_deployment(sites=3)
    assert len(dep.switches) == 3
    assert len(dep.mesh_vswitches) == 3
    assert dep.overlay.assignment["pop0"] == ["wmv0", "wmv1"]
    # Remote PoPs are controlled across the WAN.
    assert dep.switches[1].channel.latency > dep.switches[0].channel.latency


def test_minimum_sites_enforced():
    with pytest.raises(ValueError):
        build_wan_deployment(sites=1)


def test_wan_paths_carry_wan_delay():
    dep = build_wan_deployment(sites=3)
    path = dep.network.shortest_path("pop0", "pop1")
    edges = dep.network.graph.edges
    assert any(edges[u, v]["delay"] >= 10e-3 for u, v in zip(path, path[1:]))


def test_scotch_protects_across_wan():
    """Activation and overlay detour still work when every control and
    tunnel leg includes ~10 ms of WAN latency — only slower."""
    dep = build_wan_deployment(sites=3, seed=2)
    sim = dep.sim
    target = dep.servers[1].ip  # a *remote* site's server
    client = NewFlowSource(sim, dep.client, target, rate_fps=50.0)
    attack = SpoofedFlood(sim, dep.attacker, target, rate_fps=2000.0)
    client.start(at=0.5, stop_at=18.0)
    attack.start(at=2.0, stop_at=18.0)
    sim.run(until=20.0)
    assert dep.scotch.activations >= 1
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[1].recv_tap, start=6.0, end=16.0
    )
    assert failure < 0.05


def test_cross_site_overlay_delivery():
    dep = build_wan_deployment(sites=4, seed=3)
    sim = dep.sim
    target = dep.servers[3].ip
    attack = SpoofedFlood(sim, dep.attacker, target, rate_fps=1500.0)
    attack.start(at=0.5, stop_at=10.0)
    sim.run(until=12.0)
    # Flows entered at site 0 and were delivered at site 3 via the
    # overlay (local mesh vSwitch of the destination site).
    assert dep.servers[3].recv_tap.total_packets > 2000
    counts = dep.scotch.flow_db.counts()
    assert counts.get("overlay", 0) > counts.get("physical", 0)
