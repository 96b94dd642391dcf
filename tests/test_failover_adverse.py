"""Adverse-timing failover tests (§5.6 under hostile conditions).

The happy-path failover suite (test_core_failover.py) fails a vSwitch
in quiet conditions.  These tests hit the awkward interleavings: death
in the middle of an echo exchange, recovery while the failover GroupMod
is still in flight, and a control channel that flaps faster than the
failover settles.
"""

from repro.core.config import ScotchConfig
from repro.faults import FaultInjector, FaultPlan
from repro.openflow.messages import GroupMod
from repro.testbed.deployment import build_deployment
from repro.traffic import SpoofedFlood


def build(seed=4):
    config = ScotchConfig(
        heartbeat_interval=0.25,
        heartbeat_miss_limit=2,
        reliable_install_timeout=0.2,
        reliable_install_timeout_cap=1.0,
        reliable_install_max_retries=3,
    )
    return build_deployment(seed=seed, racks=2, mesh_per_rack=1, backups=1,
                            config=config)


def _flood(dep, stop_at=20.0):
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip,
                         rate_fps=2000.0)
    flood.start(at=0.5, stop_at=stop_at)
    return flood


def _spy_group_mods(dep):
    """Record every GroupMod actually delivered to the edge switch."""
    delivered = []
    original = dep.edge.channel.switch_sink

    def spy(message):
        if isinstance(message, GroupMod):
            delivered.append([b.label for b in message.buckets])
        original(message)

    dep.edge.channel.switch_sink = spy
    return delivered


def test_vswitch_death_in_the_middle_of_an_echo_exchange():
    """The victim dies right after its echo request goes out; the reply
    it would have sent must not arrive (in-flight messages die with the
    link), so the miss counter keeps climbing and detection still
    fires exactly once."""
    dep = build()
    victim = dep.mesh_vswitches[0]
    original_echo = dep.controller.echo
    killed = []

    def echo_spy(dpid):
        original_echo(dpid)
        if dpid == victim.name and not killed and dep.sim.now > 2.0:
            killed.append(dep.sim.now)
            # Strike while the request is on the wire.
            dep.sim.schedule(0.2e-3, victim.fail)

    dep.controller.echo = echo_spy
    dep.sim.run(until=10.0)
    assert killed
    assert dep.scotch.heartbeat.failures_detected == 1
    assert dep.scotch.heartbeat.recoveries_detected == 0  # no ghost echo
    assert victim.name in dep.scotch.overlay.dead


def test_recovery_arriving_mid_failover_converges():
    """The victim comes back while its failover GroupMod is still being
    pushed; the monitor must detect the recovery and re-admit it without
    double-counting either transition."""
    dep = build()
    _flood(dep)
    victim = dep.mesh_vswitches[0]
    heartbeat = dep.scotch.heartbeat
    original = heartbeat._declare_dead

    def declare_spy(dpid):
        original(dpid)
        if dpid == victim.name:
            dep.sim.schedule(0.05, victim.recover)  # GroupMod still in flight

    heartbeat._declare_dead = declare_spy
    dep.sim.schedule(3.0, victim.fail)
    dep.sim.run(until=15.0)
    assert heartbeat.failures_detected == 1
    assert heartbeat.recoveries_detected == 1
    assert dep.scotch.overlay.dead == set()
    group = dep.edge.datapath.groups.get(1)
    labels = [b.label for b in group.buckets]
    assert victim.name in labels  # re-admitted after recovery
    assert len(labels) == len(set(labels))  # no duplicated buckets


def test_flapping_channel_keeps_counters_and_group_consistent():
    """A channel flapping slower than the detection window causes
    repeated death/recovery cycles; every failure must be matched by a
    recovery, the reliable layer must not abandon the refreshes, and the
    final group must contain each bucket exactly once."""
    dep = build()
    _flood(dep)
    victim = dep.mesh_vswitches[0]
    delivered = _spy_group_mods(dep)
    plan = FaultPlan().channel_flap(3.0, victim.name, period=1.2, flaps=2)
    FaultInjector(dep.sim, dep.network, dep.controller, plan).start()
    dep.sim.run(until=15.0)
    heartbeat = dep.scotch.heartbeat
    assert heartbeat.failures_detected >= 1
    assert heartbeat.failures_detected == heartbeat.recoveries_detected
    assert dep.scotch.overlay.dead == set()
    assert dep.scotch.reliable.abandoned == 0
    group = dep.edge.datapath.groups.get(1)
    labels = [b.label for b in group.buckets]
    assert victim.name in labels
    assert len(labels) == len(set(labels))
    # Every delivered GroupMod carried a duplicate-free bucket set.
    assert delivered
    for bucket_labels in delivered:
        assert len(bucket_labels) == len(set(bucket_labels))


def test_flap_faster_than_detection_is_invisible():
    """A blip that swallows only a single echo (shorter than the
    miss_limit window) must not trigger failover — the miss counter
    resets on the next successful exchange."""
    dep = build()
    _flood(dep)
    victim = dep.mesh_vswitches[0]
    # Down 3.2..3.3: exactly one heartbeat tick (3.25) lands in it.
    plan = FaultPlan().channel_flap(3.2, victim.name, period=0.1, flaps=1)
    FaultInjector(dep.sim, dep.network, dep.controller, plan).start()
    dep.sim.run(until=12.0)
    assert dep.scotch.heartbeat.failures_detected == 0
    assert dep.scotch.overlay.dead == set()


def test_death_during_flap_stays_dead():
    """A vSwitch that crashes while its channel is flapping must end up
    (and stay) declared dead — the flap-up must not resurrect it."""
    dep = build()
    _flood(dep)
    victim = dep.mesh_vswitches[0]
    plan = FaultPlan().channel_flap(3.0, victim.name, period=1.2, flaps=2)
    FaultInjector(dep.sim, dep.network, dep.controller, plan).start()
    dep.sim.schedule(3.5, victim.fail)  # dies while the channel is down
    dep.sim.run(until=15.0)
    heartbeat = dep.scotch.heartbeat
    assert heartbeat.failures_detected == 1
    assert heartbeat.recoveries_detected == 0
    assert victim.name in dep.scotch.overlay.dead
    group = dep.edge.datapath.groups.get(1)
    labels = [b.label for b in group.buckets]
    assert victim.name not in labels
    assert "bv0" in labels
