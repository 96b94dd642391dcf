"""Unit-level tests for the elephant migrator (§5.3) on the deployment."""

import pytest

pytestmark = pytest.mark.slow

import repro.core.app as app_module
import repro.core.migration as migration_module
from repro.core.config import ScotchConfig
from repro.net.flow import FlowKey, FlowSpec
from repro.testbed.deployment import build_deployment
from repro.traffic import SpoofedFlood


def congested_deployment(seed=3, config=None, **kwargs):
    config = config or ScotchConfig(overlay_threshold=2)
    dep = build_deployment(seed=seed, racks=2, mesh_per_rack=1, config=config, **kwargs)
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=1500.0)
    flood.start(at=0.5, stop_at=30.0)
    return dep


def start_elephant(dep, packets=3000, pps=500.0, at=3.0, sport=5555):
    key = FlowKey("10.99.0.99", dep.servers[0].ip, 6, sport, 80)
    dep.attacker.start_flow(
        FlowSpec(key=key, start_time=at, size_packets=packets, packet_size=1500,
                 rate_pps=pps, batch=10)
    )
    return key


def test_small_flows_never_migrate():
    dep = congested_deployment()
    key = start_elephant(dep, packets=50, pps=100.0)  # below the 200-pkt threshold
    dep.sim.run(until=10.0)
    assert dep.scotch.migrator.migrations_started == 0
    assert dep.scotch.flow_db.get(key).route == "overlay"


@pytest.fixture(scope="module")
def migrated():
    """One 3000-packet elephant at 500 pps from 3 s on the attacked port,
    run to 12 s: (deployment, the elephant's key)."""
    dep = congested_deployment()
    key = start_elephant(dep, packets=3000, pps=500.0, at=3.0)
    dep.sim.run(until=12.0)
    return dep, key


def test_elephant_detected_after_threshold_packets(migrated):
    dep, key = migrated
    info = dep.scotch.flow_db.get(key)
    assert info.route == "physical"
    # Detection cannot precede the threshold packet count: 200 pkts at
    # 500 pps is 0.4 s after start, plus a stats poll.
    assert info.migrated_at >= 3.0 + 0.4


def test_migration_is_idempotent_across_stats_polls(migrated):
    dep, _ = migrated
    migrator = dep.scotch.migrator
    assert migrator.migrations_started == 1
    assert migrator.migrations_completed == 1


def test_custom_elephant_threshold_respected():
    config = ScotchConfig(overlay_threshold=2, elephant_packet_threshold=100_000)
    dep = congested_deployment(config=config)
    key = start_elephant(dep)
    dep.sim.run(until=12.0)
    assert dep.scotch.migrator.migrations_started == 0
    assert dep.scotch.flow_db.get(key).route == "overlay"


def test_deferral_when_path_backlogged(monkeypatch):
    # A tiny backlog limit forces at least one deferral under the flood's
    # downstream install pressure; the retry eventually lands it.
    monkeypatch.setattr(migration_module, "MIGRATION_BACKLOG_LIMIT", 0)
    monkeypatch.setattr(app_module, "MIGRATION_BACKLOG_LIMIT", 0)
    config = ScotchConfig(overlay_threshold=2)
    dep = congested_deployment(config=config)
    key = start_elephant(dep, packets=6000, pps=500.0)
    dep.sim.run(until=16.0)
    migrator = dep.scotch.migrator
    assert migrator.migrations_deferred >= 1


def test_two_elephants_both_migrate():
    dep = congested_deployment()
    key_a = start_elephant(dep, sport=5555, at=3.0)
    key_b = start_elephant(dep, sport=6666, at=3.5)
    dep.sim.run(until=14.0)
    assert dep.scotch.flow_db.get(key_a).route == "physical"
    assert dep.scotch.flow_db.get(key_b).route == "physical"
    assert dep.scotch.migrator.migrations_completed == 2


def test_migrated_flow_keeps_delivering_after_overlay_rule_cleanup():
    dep = congested_deployment()
    key = start_elephant(dep, packets=4000, pps=500.0)
    dep.sim.run(until=16.0)
    record = dep.servers[0].recv_tap.flow(key)
    assert record.packets_received == 4000
    assert dep.scotch.flow_db.get(key).overlay_sites == []
