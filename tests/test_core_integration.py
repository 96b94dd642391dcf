"""Integration tests: the full Scotch lifecycle on the deployment testbed.

These are the behavioural guarantees the paper claims, exercised
end-to-end: protection under flood, ingress-port isolation, elephant
migration, policy consistency, withdrawal, and vSwitch failover.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.core.config import PRIORITY_SCOTCH_DEFAULT
from repro.net.flow import FlowKey, FlowSpec
from repro.net.tap import client_flow_failure_fraction
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


def test_normal_operation_without_attack():
    dep = build_deployment(seed=1)
    client = NewFlowSource(dep.sim, dep.client, dep.servers[0].ip, rate_fps=50.0)
    client.start(at=0.5, stop_at=5.5)
    dep.sim.run(until=8.0)
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=1.0, end=5.0
    )
    assert failure == 0.0
    assert dep.scotch.activations == 0  # no congestion, no overlay


def test_overlay_activates_and_protects_under_flood():
    dep = build_deployment(seed=1)
    sim = dep.sim
    client = NewFlowSource(sim, dep.client, dep.servers[0].ip, rate_fps=100.0)
    attack = SpoofedFlood(sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
    client.start(at=0.5, stop_at=14.0)
    attack.start(at=2.0, stop_at=14.0)
    sim.run(until=15.0)
    assert dep.scotch.activations == 1
    assert "edge" in dep.scotch.overlay.active
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=4.0, end=12.0
    )
    assert failure < 0.02
    # The overlay really is carrying the excess.
    counts = dep.scotch.flow_db.counts()
    assert counts.get("overlay", 0) > counts.get("physical", 0)


def test_vanilla_fails_under_same_flood():
    from repro.core.baselines import ReactiveForwardingApp

    dep = build_deployment(seed=1, add_scotch_app=False)
    dep.controller.add_app(ReactiveForwardingApp())
    sim = dep.sim
    client = NewFlowSource(sim, dep.client, dep.servers[0].ip, rate_fps=100.0)
    attack = SpoofedFlood(sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
    client.start(at=0.5, stop_at=14.0)
    attack.start(at=2.0, stop_at=14.0)
    sim.run(until=15.0)
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=4.0, end=12.0
    )
    assert failure > 0.7


def test_withdrawal_restores_direct_operation():
    dep = build_deployment(seed=1)
    sim = dep.sim
    client = NewFlowSource(sim, dep.client, dep.servers[0].ip, rate_fps=100.0)
    attack = SpoofedFlood(sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
    client.start(at=0.5, stop_at=25.0)
    attack.start(at=2.0, stop_at=10.0)
    sim.run(until=27.0)
    assert dep.scotch.withdrawal.withdrawals == 1
    assert dep.scotch.overlay.active == set()
    # Default rules removed from the edge switch.
    defaults = [
        e for e in dep.edge.datapath.table(0).entries()
        if e.priority == PRIORITY_SCOTCH_DEFAULT
    ]
    assert defaults == []
    # Post-withdrawal traffic unaffected.
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=20.0, end=25.0
    )
    assert failure == 0.0


def test_packet_ins_attributed_to_origin_switch():
    dep = build_deployment(seed=2)
    sim = dep.sim
    attack = SpoofedFlood(sim, dep.attacker, dep.servers[0].ip, rate_fps=1500.0)
    attack.start(at=0.5, stop_at=6.0)
    sim.run(until=7.0)
    app = dep.scotch
    # Every overlay-observed flow carries the edge switch as first hop and
    # the attacker's real ingress port.
    attacked_port = dep.network.port_between("edge", "attacker")
    overlay_infos = [i for i in app.flow_db._flows.values() if i.entry_vswitch]
    assert overlay_infos
    assert all(i.first_hop_switch == "edge" for i in overlay_infos)
    assert all(i.ingress_port == attacked_port for i in overlay_infos)


def test_elephant_migration_end_to_end():
    dep = build_deployment(seed=3)
    sim = dep.sim
    server_ip = dep.servers[0].ip
    attack = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=1500.0)
    attack.start(at=0.5, stop_at=18.0)
    key = FlowKey("10.99.0.99", server_ip, 6, 5555, 80)
    dep.attacker.start_flow(
        FlowSpec(key=key, start_time=3.0, size_packets=4000, packet_size=1500,
                 rate_pps=500.0, batch=10)
    )
    sim.run(until=16.0)
    info = dep.scotch.flow_db.get(key)
    assert info.route == "physical"
    assert info.migrated_at is not None
    # Lossless hand-over.
    record = dep.servers[0].recv_tap.flow(key)
    assert record.packets_received == 4000
    # Overlay rules cleaned up.
    assert info.overlay_sites == []
    for mv in dep.mesh_vswitches:
        leftovers = [
            e for e in mv.datapath.table(1).entries()
            if e.match.has_five_tuple and e.match.five_tuple_key() == tuple(key)
        ]
        assert leftovers == []


def test_policy_consistency_through_migration():
    dep = build_deployment(seed=3, with_firewall=True)
    sim = dep.sim
    server_ip = dep.servers[0].ip
    attack = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=1500.0)
    attack.start(at=0.5, stop_at=18.0)
    key = FlowKey("10.99.0.99", server_ip, 6, 5555, 80)
    dep.attacker.start_flow(
        FlowSpec(key=key, start_time=3.0, size_packets=4000, packet_size=1500,
                 rate_pps=500.0, batch=10)
    )
    sim.run(until=16.0)
    info = dep.scotch.flow_db.get(key)
    assert info.middlebox_chain == ["fw0"]
    assert info.route == "physical"
    # Same firewall instance saw the whole flow: no mid-flow rejects, and
    # every packet of the elephant arrived.
    assert dep.firewall.rejected_unknown == 0
    assert dep.firewall.knows(key)
    assert dep.servers[0].recv_tap.flow(key).packets_received == 4000


def test_vswitch_failover_to_backup():
    dep = build_deployment(seed=4, backups=1)
    sim = dep.sim
    server_ip = dep.servers[0].ip
    attack = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=2000.0)
    client = NewFlowSource(sim, dep.client, server_ip, rate_fps=100.0)
    attack.start(at=0.5, stop_at=20.0)
    client.start(at=0.5, stop_at=20.0)
    # Kill one mesh vSwitch mid-attack.
    victim = dep.mesh_vswitches[0]
    sim.schedule(6.0, victim.fail)
    sim.run(until=20.0)
    heartbeat = dep.scotch.heartbeat
    assert heartbeat.failures_detected == 1
    assert victim.name in dep.scotch.overlay.dead
    # The select group at the edge no longer points at the victim.
    group = dep.edge.datapath.groups.get(1)
    assert victim.name not in [b.label for b in group.buckets]
    # Client flows keep succeeding after the failover settles.
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=12.0, end=19.0
    )
    assert failure < 0.05


def test_vswitch_recovery_rejoins():
    dep = build_deployment(seed=4, backups=1)
    sim = dep.sim
    attack = SpoofedFlood(sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
    attack.start(at=0.5, stop_at=25.0)
    victim = dep.mesh_vswitches[0]
    sim.schedule(6.0, victim.fail)
    sim.schedule(14.0, victim.recover)
    sim.run(until=25.0)
    assert dep.scotch.heartbeat.recoveries_detected >= 1
    assert victim.name not in dep.scotch.overlay.dead
