"""A soak scenario: everything at once, over a minute of simulated time.

Two attack waves, a flash crowd, elephants, a vSwitch failure and
recovery, activation/withdrawal cycles — ending with the system back in
its quiescent state and every invariant intact.  This is the longest
single test in the suite and exists to catch slow leaks and interaction
bugs that short scenarios miss.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.core.config import PRIORITY_SCOTCH_DEFAULT
from repro.net.flow import FlowKey, FlowSpec
from repro.net.tap import client_flow_failure_fraction
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


@pytest.fixture(scope="module")
def soaked():
    dep = build_deployment(seed=99, racks=2, servers_per_rack=2,
                           mesh_per_rack=1, backups=1)
    sim = dep.sim
    victim = dep.servers[0].ip
    other = dep.servers[-1].ip

    # Steady legitimate load for the whole hour^Wminute.
    client = NewFlowSource(sim, dep.client, victim, rate_fps=60.0)
    client.start(at=0.5, stop_at=58.0)

    # Wave 1: spoofed flood.
    wave1 = SpoofedFlood(sim, dep.attacker, victim, rate_fps=2000.0, rng_name="w1")
    wave1.start(at=5.0, stop_at=15.0)
    # Flash crowd to a different server mid-run (pooled sources).
    crowd = NewFlowSource(sim, dep.attacker, other, rate_fps=800.0,
                          src_net=31, source_pool=30, rng_name="crowd")
    crowd.start(at=20.0, stop_at=28.0)
    # Wave 2: second flood after a quiet period.
    wave2 = SpoofedFlood(sim, dep.attacker, victim, rate_fps=1500.0, rng_name="w2")
    wave2.start(at=38.0, stop_at=46.0)

    # Elephants during both waves (enter on the attacked port).
    keys = []
    for index, start in enumerate((7.0, 40.0)):
        key = FlowKey(f"10.99.1.{index}", victim, 6, 7000 + index, 80)
        dep.attacker.start_flow(FlowSpec(
            key=key, start_time=start, size_packets=3000, packet_size=1500,
            rate_pps=500.0, batch=10))
        keys.append(key)

    # A mesh vSwitch dies during wave 1 and returns during the lull.
    victim_vswitch = dep.mesh_vswitches[0]
    sim.schedule(9.0, victim_vswitch.fail)
    sim.schedule(30.0, victim_vswitch.recover)

    sim.run(until=60.0)
    return dep, keys


def test_soak_client_protected_throughout(soaked):
    """Outside the failover detection gap (vSwitch dies at t=9; three
    missed 1 s heartbeats before the bucket swap), the client is fully
    protected in every phase."""
    dep, _ = soaked
    for window in ((6.0, 8.8), (13.5, 14.8), (21.0, 27.0), (39.0, 45.0), (50.0, 57.0)):
        failure = client_flow_failure_fraction(
            dep.client.sent_tap, dep.servers[0].recv_tap,
            start=window[0], end=window[1])
        assert failure < 0.05, f"window {window}: {failure}"


def test_soak_failover_gap_bounded(soaked):
    """During the detection gap itself, only the flows hashed to the
    dead vSwitch are lost — roughly half, never everything."""
    dep, _ = soaked
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=9.0, end=13.0)
    assert failure < 0.8


def test_soak_lifecycle_counts(soaked):
    dep, _ = soaked
    app = dep.scotch
    assert app.activations >= 2          # both waves triggered
    assert app.withdrawal.withdrawals >= 1
    assert app.heartbeat.failures_detected == 1
    assert app.heartbeat.recoveries_detected == 1


def test_soak_elephants_migrated_losslessly(soaked):
    dep, keys = soaked
    for key in keys:
        record = dep.servers[0].recv_tap.flow(key)
        assert record is not None
        assert record.packets_received == 3000


def test_soak_returns_to_quiescence(soaked):
    dep, _ = soaked
    app = dep.scotch
    assert app.overlay.active == set()
    defaults = [e for e in dep.edge.datapath.table(0).entries()
                if e.priority == PRIORITY_SCOTCH_DEFAULT]
    assert defaults == []
    # Controller state bounded: dead flows retired, not accumulated.
    assert len(app.flow_db) < 12_000
    assert app.flows_retired > 5_000


def test_soak_no_unbounded_queues(soaked):
    dep, _ = soaked
    for scheduler in dep.scotch.schedulers.values():
        assert scheduler.backlog() < 100
        assert scheduler.ingress.total_backlog() < 300
