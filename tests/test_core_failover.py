"""Tests for heartbeat-driven vSwitch failover (§5.6)."""

import pytest

from repro.core.config import ScotchConfig
from repro.testbed.deployment import build_deployment
from repro.traffic import SpoofedFlood


def build(backups=1, seed=4, heartbeat_interval=0.5, miss_limit=3):
    config = ScotchConfig(heartbeat_interval=heartbeat_interval,
                          heartbeat_miss_limit=miss_limit)
    dep = build_deployment(seed=seed, racks=2, mesh_per_rack=1, backups=backups,
                           config=config)
    return dep


def test_healthy_vswitches_never_declared_dead():
    dep = build()
    dep.sim.run(until=10.0)
    assert dep.scotch.heartbeat.failures_detected == 0
    assert dep.scotch.overlay.dead == set()


def test_detection_latency_bounded_by_miss_limit():
    dep = build(heartbeat_interval=0.5, miss_limit=3)
    victim = dep.mesh_vswitches[0]
    dep.sim.schedule(2.0, victim.fail)
    detected = []
    original = dep.scotch.heartbeat._declare_dead

    def spy(dpid):
        detected.append(dep.sim.now)
        original(dpid)

    dep.scotch.heartbeat._declare_dead = spy
    dep.sim.run(until=10.0)
    assert len(detected) == 1
    # Detection needs miss_limit consecutive missed echoes: within
    # (miss_limit .. miss_limit + 2) heartbeat intervals after failure.
    assert 2.0 + 3 * 0.5 - 0.5 <= detected[0] <= 2.0 + 5 * 0.5 + 0.5


def test_group_refreshed_only_after_activation():
    # Without any congestion the group does not exist; failover must not
    # send a GroupMod at a switch whose group was never installed.
    dep = build()
    victim = dep.mesh_vswitches[0]
    dep.sim.schedule(1.0, victim.fail)
    dep.sim.run(until=10.0)
    assert dep.scotch.heartbeat.failures_detected == 1
    assert dep.edge.datapath.groups.get(1) is None  # still no group


@pytest.fixture(scope="module")
def failed_over():
    """A 2000 f/s flood keeps the overlay active; the first mesh vSwitch
    fails at 5 s and the run goes on to 15 s: (deployment, victim)."""
    dep = build()
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
    flood.start(at=0.5, stop_at=20.0)
    victim = dep.mesh_vswitches[0]
    dep.sim.schedule(5.0, victim.fail)
    dep.sim.run(until=15.0)
    return dep, victim


def test_bucket_swap_under_active_overlay(failed_over):
    dep, victim = failed_over
    group = dep.edge.datapath.groups.get(1)
    labels = [b.label for b in group.buckets]
    assert victim.name not in labels
    assert "bv0" in labels  # the backup took its slot


def test_flows_resume_via_backup_as_new_flows(failed_over):
    dep, _ = failed_over
    backup = next(v for v in dep.mesh_vswitches if v.name == "bv0")
    # The backup vSwitch now raises Packet-Ins for the re-hashed flows.
    assert backup.ofa.packet_ins_sent > 100


def test_recovery_restores_original_assignment():
    dep = build()
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
    flood.start(at=0.5, stop_at=28.0)
    victim = dep.mesh_vswitches[0]
    dep.sim.schedule(5.0, victim.fail)
    dep.sim.schedule(12.0, victim.recover)
    dep.sim.run(until=25.0)
    hb = dep.scotch.heartbeat
    assert hb.failures_detected == 1
    assert hb.recoveries_detected == 1
    group = dep.edge.datapath.groups.get(1)
    assert victim.name in [b.label for b in group.buckets]


def test_resync_supersedes_stale_inflight_group_refresh():
    """Regression: a standby resync racing an in-flight group refresh.

    A failover GroupMod keyed ``("group", edge)`` can still be retrying
    (barrier ack lost) when a resync pushes fresh state under the
    *activation* key.  Keyed supersession cannot retire the stale batch
    — different key — so before the fix its next retry landed after the
    fresh push and resurrected the superseded bucket set.  Resync must
    cancel the whole in-flight keyed set first (supersede_all)."""
    dep = build(heartbeat_interval=0.25, miss_limit=2)
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
    flood.start(at=0.5, stop_at=20.0)
    dep.sim.run(until=4.0)
    edge, victim = dep.edge, dep.mesh_vswitches[0]
    assert edge.datapath.groups.get(1) is not None  # overlay active

    # Ack path dark + victim dead: the failover refresh (buckets without
    # the victim) goes in flight and stays there, retrying.
    edge.channel.disconnect()
    victim.fail()
    dep.sim.run(until=6.0)
    reliable = dep.scotch.reliable
    assert ("group", edge.name) in reliable._by_key

    # Recovery lands through a path that does NOT re-key the group batch
    # (the racing interleaving), then the standby takes over: reconnect
    # and resync in the same instant.
    victim.recover()
    dep.scotch.overlay.dead.discard(victim.name)
    edge.channel.reconnect()
    dep.scotch.resync()
    dep.sim.run(until=12.0)

    # The resync push (victim back in the buckets) must be final state;
    # the stale batch's retry must not have resurrected the victimless
    # bucket set on top of it.
    group = edge.datapath.groups.get(1)
    assert victim.name in [b.label for b in group.buckets]
    assert ("group", edge.name) not in reliable._by_key


def test_no_backup_degrades_to_remaining_vswitches():
    dep = build(backups=0)
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=1500.0)
    flood.start(at=0.5, stop_at=20.0)
    victim = dep.mesh_vswitches[0]
    dep.sim.schedule(5.0, victim.fail)
    dep.sim.run(until=15.0)
    group = dep.edge.datapath.groups.get(1)
    labels = [b.label for b in group.buckets]
    assert labels == ["mv1_0"]  # one live vSwitch carries everything
