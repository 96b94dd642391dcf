"""Tests for the security application built on Scotch visibility."""

import pytest

from repro.core.security import BLOCK, PRIORITY_MITIGATION, SecurityApp
from repro.net.tap import client_flow_failure_fraction
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


def build(mitigation="report", seed=61, **kwargs):
    dep = build_deployment(seed=seed, racks=2, mesh_per_rack=1)
    app = SecurityApp(dep.overlay, mitigation=mitigation, **kwargs)
    dep.controller.add_app(app)
    return dep, app


def test_no_reports_without_attack():
    dep, app = build()
    client = NewFlowSource(dep.sim, dep.client, dep.servers[0].ip, rate_fps=100.0)
    client.start(at=0.5, stop_at=8.0)
    dep.sim.run(until=10.0)
    assert app.reports == []


def test_spoofed_flood_detected_with_attribution():
    dep, app = build()
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
    flood.start(at=1.0, stop_at=10.0)
    dep.sim.run(until=12.0)
    assert app.reports
    report = app.reports[0]
    # Attribution survives the overlay detour: the report names the
    # edge switch and the attacker's real ingress port.
    assert report.switch == "edge"
    assert report.port == dep.network.port_between("edge", "attacker")
    assert report.top_destination == dep.servers[0].ip
    assert report.spoofing_suspected  # fresh source per packet
    assert report.new_flow_rate > 500


def test_flash_crowd_not_flagged_as_spoofed():
    """High rate from few repeat sources: detected, but not spoofing."""
    dep, app = build()
    crowd = NewFlowSource(dep.sim, dep.attacker, dep.servers[0].ip,
                          rate_fps=1500.0, src_net=30, source_pool=20)
    crowd.start(at=1.0, stop_at=8.0)
    dep.sim.run(until=10.0)
    assert app.reports
    assert not app.reports[0].spoofing_suspected
    assert app.reports[0].distinct_sources <= 20


def test_block_mitigation_sheds_flood_in_data_plane():
    dep, app = build(mitigation=BLOCK, seed=62)
    sim = dep.sim
    server_ip = dep.servers[0].ip
    flood = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=2000.0)
    client = NewFlowSource(sim, dep.client, server_ip, rate_fps=100.0)
    flood.start(at=1.0, stop_at=20.0)
    client.start(at=0.5, stop_at=20.0)
    sim.run(until=22.0)
    assert app.mitigations_installed >= 1
    # The drop rule exists at the edge switch.
    rules = [e for e in dep.edge.datapath.table(0).entries()
             if e.priority == PRIORITY_MITIGATION]
    assert len(rules) == 1
    assert rules[0].packets > 1000  # the flood is dying in hardware
    # The clean-port client is unaffected (its port is not blocked).
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=8.0, end=19.0
    )
    assert failure < 0.05


def test_mitigation_not_repeated_for_same_target():
    dep, app = build(mitigation=BLOCK, seed=62)
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
    flood.start(at=1.0, stop_at=15.0)
    dep.sim.run(until=17.0)
    # One detection, one block — after which the flood dies in the data
    # plane, Packet-Ins stop, and no further reports (or blocks) fire.
    assert app.mitigations_installed == 1
    assert len(app.reports) == 1
    assert app.reports[0].mitigated


def test_attack_callback_invoked():
    seen = []
    dep = build_deployment(seed=63)
    app = SecurityApp(dep.overlay, on_attack=seen.append)
    dep.controller.add_app(app)
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=1500.0)
    flood.start(at=1.0, stop_at=6.0)
    dep.sim.run(until=8.0)
    assert seen and seen[0].switch == "edge"


def test_parameter_validation():
    dep = build_deployment(seed=61)
    with pytest.raises(ValueError):
        SecurityApp(dep.overlay, mitigation="nuke")
    with pytest.raises(ValueError):
        SecurityApp(dep.overlay, interval=0)
