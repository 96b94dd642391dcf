"""Tests for the elastic controller pool (docs/cluster.md).

Covers the bus, leader election, lease-bounded failover, generation-
fenced role handoff, orphan buffering/drain, exactly-once flow setup,
autoscaling, EASM rebalancing, pool chaos invariants and determinism.
"""

import pytest

from repro.cluster import (
    PoolTraffic,
    build_pool_deployment,
    peak_live_members,
    pool_chaos_config,
    randomized_pool_plan,
)
from repro.cluster.bus import PoolBus
from repro.cluster.pool import pool_grace
from repro.core.config import ScotchConfig
from repro.faults import run
from repro.faults.plan import KINDS, POOL_KINDS, FaultEvent, FaultPlan
from repro.net.packet import Packet
from repro.openflow.messages import PacketIn, RoleMod, RoleStatus
from repro.sim.engine import Simulator


def build(controllers=3, switches=6, seed=3, **overrides):
    base = pool_chaos_config(controllers)
    if overrides:
        merged = {**base.__dict__, **overrides}
        base = ScotchConfig(**merged)
    return build_pool_deployment(seed=seed, switches=switches, config=base)


# ----------------------------------------------------------------------
# PoolBus
# ----------------------------------------------------------------------
def test_bus_broadcast_skips_sender_and_detached():
    sim = Simulator(seed=0)
    bus = PoolBus(sim, delay=0.01)
    got = {"a": [], "b": [], "c": []}
    for name in ("a", "b", "c"):
        bus.attach(name, lambda src, p, name=name: got[name].append((src, p)))
    bus.detach("c")
    bus.broadcast("a", ("hello",))
    sim.run(until=0.1)
    assert got["b"] == [("a", ("hello",))]
    assert got["a"] == [] and got["c"] == []


def test_bus_partition_blocks_cross_group_and_heals():
    sim = Simulator(seed=0)
    bus = PoolBus(sim, delay=0.01)
    got = {"a": [], "b": []}
    bus.attach("a", lambda src, p: got["a"].append(p))
    bus.attach("b", lambda src, p: got["b"].append(p))
    bus.set_partition([["a"], ["b"]])
    bus.send("a", "b", ("x",))
    sim.run(until=0.1)
    assert got["b"] == [] and bus.partition_blocked == 1
    bus.heal_partition()
    bus.send("a", "b", ("y",))
    sim.run(until=0.2)
    assert got["b"] == [("y",)]


def test_bus_loss_is_deterministic_per_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        bus = PoolBus(sim, delay=0.01)
        bus.loss = 0.5
        got = []
        bus.attach("b", lambda src, p: got.append(p))
        for i in range(40):
            bus.send("a", "b", (i,))
        sim.run(until=1.0)
        return got

    assert run(5) == run(5)
    assert run(5) != run(6)
    assert 0 < len(run(5)) < 40


# ----------------------------------------------------------------------
# Election + failover
# ----------------------------------------------------------------------
def test_initial_leader_is_lowest_id_no_election_storm():
    dep = build()
    dep.sim.run(until=3.0)
    pool = dep.pool
    for member in pool.members.values():
        assert member.leader_id == "c0"
        assert member.term == 1
    assert not [e for e in pool.events if e["event"] == "leader-elected"]


def test_every_switch_gets_a_master_at_start():
    dep = build()
    dep.sim.run(until=3.0)
    pool = dep.pool
    assert sorted(pool.acked_master) == [s.name for s in dep.switches]
    # Spread: no member hoards the switches.
    counts = pool.member_switch_counts()
    assert max(counts.values()) - min(counts.values()) <= 1


def test_leader_crash_elects_new_leader_within_bounded_window():
    dep = build()
    dep.sim.run(until=2.0)
    dep.pool.crash_member("c0")  # the leader
    config = dep.config
    bound = (config.pool_lease_timeout + config.pool_election_timeout
             + 2 * config.pool_lease_interval + 4 * config.pool_bus_delay)
    dep.sim.run(until=2.0 + bound)
    elected = [e for e in dep.pool.events if e["event"] == "leader-elected"]
    assert len(elected) == 1
    assert elected[0]["leader"] == "c1"  # lowest live id wins the tie
    assert elected[0]["t"] - 2.0 <= bound
    for member_id in ("c1", "c2"):
        member = dep.pool.members[member_id]
        assert member.leader_id == "c1"
        assert member.term == 2


def test_member_crash_promotes_new_master_within_pool_grace():
    dep = build()
    traffic = PoolTraffic(dep.sim, dep.switches)
    traffic.start(at=0.5, stop_at=15.0, rate_fps=200.0)
    dep.sim.run(until=4.0)
    pool = dep.pool
    victim = "c1"  # a follower, so election noise stays out of the test
    orphans = [d for d, m in pool.acked_master.items() if m == victim]
    assert orphans
    pool.crash_member(victim)
    dep.sim.run(until=4.0 + pool_grace(dep.config))
    for dpid in orphans:
        master = pool.acked_master[dpid]
        assert master != victim
        assert pool.members[master].alive
    assert pool.orphan_since == {}  # every orphan window closed
    # The measured windows are lease-bounded: death is only observable
    # through missing alive-beats, never via shared-memory shortcuts.
    assert pool.failover_windows
    for window in pool.failover_windows:
        assert dep.config.pool_lease_timeout <= window <= pool_grace(dep.config)


def test_restored_member_rejoins_as_follower():
    dep = build()
    dep.sim.run(until=2.0)
    dep.pool.crash_member("c2")
    dep.sim.run(until=6.0)
    dep.pool.restore_member("c2")
    dep.sim.run(until=9.0)
    member = dep.pool.members["c2"]
    assert member.alive
    assert member.leader_id == "c0"
    assert dep.pool.live_member_count() == 3


# ----------------------------------------------------------------------
# Role handoff: generation fencing + orphan drain + exactly-once
# ----------------------------------------------------------------------
def test_stale_role_mod_is_rejected_by_generation_fence():
    dep = build()
    dep.sim.run(until=3.0)
    switch = dep.switches[0]
    current_gen = switch.ofa.role_generation
    assert current_gen >= 1 and switch.ofa.master_id is not None
    replies = []
    original_sink = switch.channel.controller_sink
    switch.channel.controller_sink = lambda d, m: replies.append(m) or original_sink(d, m)
    switch.channel.send_to_switch(RoleMod(master_id="cX", generation=current_gen))
    dep.sim.run(until=3.5)
    assert switch.ofa.stale_role_mods == 1
    assert switch.ofa.master_id != "cX"
    errors = [m for m in replies if getattr(m, "code", "") == "role_stale"]
    assert len(errors) == 1
    assert dep.pool.stale_role_errors == 1
    # A strictly newer generation is adopted and acknowledged.
    switch.channel.send_to_switch(RoleMod(master_id="cY", generation=current_gen + 5))
    dep.sim.run(until=4.0)
    assert switch.ofa.master_id == "cY"
    assert switch.ofa.role_generation == current_gen + 5
    assert any(isinstance(m, RoleStatus) for m in replies)


def test_orphaned_packet_ins_buffer_and_drain_to_new_master():
    dep = build()
    traffic = PoolTraffic(dep.sim, dep.switches)
    dep.sim.run(until=3.0)
    pool = dep.pool
    victim = "c1"
    victim_switches = [d for d, m in pool.acked_master.items() if m == victim]
    assert victim_switches
    pool.crash_member(victim)
    # Traffic starts only after the crash: every Packet-In for the
    # victim's switches lands in the orphan buffer first.
    traffic.start(at=3.1, stop_at=3.6, rate_fps=600.0)
    dep.sim.run(until=3.0 + pool_grace(dep.config))
    assert pool.orphaned > 0
    assert pool.drained == pool.orphaned - pool.orphan_dropped
    assert pool.orphan_dropped == 0
    # Every drained flow got its rule installed by the new master.
    for dpid in victim_switches:
        keys = [k for k in pool.flow_owner if k[0] == dpid]
        assert keys
        owners = {pool.flow_owner[k] for k in keys}
        assert victim not in owners


def test_orphan_buffer_caps_each_switch_separately(monkeypatch):
    """A burst at one orphaned switch evicts only that switch's oldest
    Packet-Ins: another orphaned switch's buffer drains whole."""
    monkeypatch.setattr("repro.cluster.pool.ORPHAN_BUFFER_LIMIT", 8)
    dep = build()
    dep.sim.run(until=3.0)
    pool = dep.pool
    victim = "c1"
    victim_switches = sorted(d for d, m in pool.acked_master.items() if m == victim)
    assert len(victim_switches) >= 2
    quiet, flooded = victim_switches[:2]
    pool.crash_member(victim)

    def punt(dpid, index):
        packet = Packet("10.9.0.1", "10.0.0.1", src_port=1000 + index, dst_port=80)
        pool.packet_in(dpid, PacketIn(datapath_id=dpid, packet=packet, in_port=1))

    for index in range(4):
        punt(quiet, index)
    for index in range(20):
        punt(flooded, index)
    dep.sim.run(until=3.0 + pool_grace(dep.config))
    drained = {e["dpid"]: e["count"] for e in pool.events
               if e["event"] == "orphan-drain"}
    assert drained.get(quiet) == 4
    assert drained.get(flooded) == 8
    assert pool.orphan_dropped == 12
    for dpid in (quiet, flooded):
        assert pool.members[pool.acked_master[dpid]].alive


def test_no_flow_setup_lost_or_double_installed_across_crash():
    dep = build()
    traffic = PoolTraffic(dep.sim, dep.switches, flows_per_switch=32)
    traffic.start(at=0.5, stop_at=14.0, rate_fps=400.0)
    dep.sim.run(until=4.0)
    pool = dep.pool
    pool.crash_member("c1")
    dep.sim.run(until=16.0)
    assert pool.double_installs == 0
    assert pool.orphan_dropped == 0
    # Zero lost setups: every switch holds exactly one rule per distinct
    # five-tuple the traffic offered it (32 flows round-robin).
    for switch in dep.switches:
        owned = [k for k in pool.flow_owner if k[0] == switch.name]
        assert len(owned) == 32
        installed = {
            tuple(e.match.fields.get(f) for f in
                  ("src_ip", "dst_ip", "proto", "src_port", "dst_port"))
            for e in switch.datapath.table(0).entries()
        }
        for _dpid, flow_key in owned:
            five_tuple = (flow_key.src_ip, flow_key.dst_ip, flow_key.proto,
                          flow_key.src_port, flow_key.dst_port)
            assert five_tuple in installed, f"flow lost at {switch.name}"
        assert len(installed) == 32  # one rule per flow, never duplicated


def test_handled_plus_buffered_accounts_for_every_packet_in():
    dep = build()
    traffic = PoolTraffic(dep.sim, dep.switches)
    traffic.start(at=0.5, stop_at=9.0, rate_fps=300.0)
    dep.sim.run(until=5.0)
    dep.pool.crash_member("c2")
    dep.sim.run(until=10.0)
    pool = dep.pool
    handled = sum(m.packet_ins_handled for m in pool.members.values())
    buffered = sum(map(len, pool._orphan_buffer.values()))
    assert pool.packet_ins_total == handled - pool.drained + pool.orphaned
    assert pool.orphaned == pool.drained + buffered + pool.orphan_dropped


# ----------------------------------------------------------------------
# Autoscaling + rebalancing
# ----------------------------------------------------------------------
def test_flash_crowd_scales_up_then_cools_back_down():
    report = run("pool_autoscale", seed=2)
    assert peak_live_members(report) >= 2
    assert report.members_live == 1  # back at the floor after cooldown
    events = [e["event"] for e in report.pool_events]
    up = events.index("scale-up")
    down = events.index("scale-down")
    assert up < down
    assert "member-retired" in events
    assert not report.violations
    assert report.double_installs == 0
    # Draining handed every switch off before the member retired.
    assert len(report.acked_master) == report.switches


def test_scale_up_respects_ceiling_and_warmup():
    report = run("pool_autoscale", seed=2)
    spawns = [e for e in report.pool_events if e["event"] == "member-spawn"]
    assert 1 <= len(spawns) <= 2  # floor 1 + ceiling 3
    times = [e["t"] for e in spawns]
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= 1.5  # pool_warmup spacing


def test_rebalance_moves_switch_from_hot_member_to_idle_one():
    dep = build(controllers=2, switches=4)
    dep.sim.run(until=2.0)
    pool = dep.pool
    hot = [d for d, m in pool.acked_master.items() if m == "c0"]
    assert hot
    # All load lands on c0's switches: imbalance ratio is infinite.
    hot_switches = [s for s in dep.switches if s.name in hot]
    traffic = PoolTraffic(dep.sim, hot_switches)
    traffic.start(at=2.0, stop_at=10.0, rate_fps=400.0)
    dep.sim.run(until=10.0)
    moves = [e for e in pool.events if e["event"] == "rebalance-move"]
    assert moves
    assert moves[0]["src"] == "c0" and moves[0]["dst"] == "c1"
    moved = moves[0]["dpid"]
    assert pool.acked_master[moved] == "c1"
    assert not [v for v in pool.events if v["event"] == "role-abandoned"]


# ----------------------------------------------------------------------
# Chaos scenario + invariants + determinism
# ----------------------------------------------------------------------
def test_pool_chaos_default_plan_stays_healthy():
    report = run("pool_chaos", seed=1)
    assert report.healthy
    assert report.faults_injected == 3
    assert set(report.fault_counts) == set(POOL_KINDS)
    assert report.violations == []
    assert report.double_installs == 0
    assert report.members_live == 3
    assert len(report.acked_master) == report.switches
    for window in report.failover_windows:
        assert window <= report.grace


@pytest.mark.parametrize("members", [2, 4])
def test_pool_survives_staggered_member_crashes(members):
    """One crash per spare member, 4 s apart and 6 s long, under 400 f/s
    over 8 switches: every failover window stays inside the lease bound
    whatever the pool size."""
    plan = FaultPlan()
    for index in range(1, members):
        plan.pool_member_crash(4.0 + 4.0 * (index - 1), f"c{index}",
                               down_for=6.0)
    report = run("pool_chaos", seed=7, duration=20.0, controllers=members,
                 switches=8, rate_fps=400.0, plan=plan)
    assert report.healthy
    assert report.double_installs == 0
    assert len(report.acked_master) == 8
    assert report.failover_windows
    assert max(report.failover_windows) <= report.grace


def test_pool_chaos_is_byte_deterministic():
    a = run("pool_chaos", seed=4, duration=24.0)
    b = run("pool_chaos", seed=4, duration=24.0)
    assert a.pool_events_jsonl == b.pool_events_jsonl
    assert a.fault_log_jsonl == b.fault_log_jsonl
    assert a.packet_ins_total == b.packet_ins_total
    c = run("pool_chaos", seed=5, duration=24.0)
    assert a.pool_events_jsonl != c.pool_events_jsonl


def test_split_brain_partition_converges_after_heal():
    config = pool_chaos_config(3)
    plan = FaultPlan().pool_partition(3.0, [["c0"], ["c1", "c2"]],
                                      duration=3.0)
    report = run("pool_chaos", seed=6, plan=plan, config=config)
    # The minority/majority split elects a second leader; after the
    # heal, precedence (higher term, then lowest id) converges on one.
    assert report.elections >= 1
    assert report.violations == []
    assert report.double_installs == 0
    assert len(report.acked_master) == report.switches


def test_pool_chaos_with_health_produces_scorecard():
    report = run("pool_chaos", seed=1, health=True)
    assert report.scorecard is not None
    names = set(report.scorecard.rules)
    assert "pool_member_down" in names
    member_down = report.scorecard.rules["pool_member_down"]
    assert member_down.firings >= 1


def test_randomized_pool_plan_is_seed_deterministic_and_pool_only():
    from repro.sim.rng import RngRegistry

    a = randomized_pool_plan(RngRegistry(9), 20.0, ["c0", "c1", "c2"])
    b = randomized_pool_plan(RngRegistry(9), 20.0, ["c0", "c1", "c2"])
    assert a.events() == b.events()
    assert all(e.kind in POOL_KINDS for e in a)
    c = randomized_pool_plan(RngRegistry(10), 20.0, ["c0", "c1", "c2"])
    assert a.events() != c.events()


def test_pool_kinds_stay_out_of_randomized_kinds():
    # The golden chaos fixtures depend on randomized() drawing from the
    # original six kinds only.
    assert set(KINDS) == {
        "channel_loss", "channel_flap", "partition",
        "vswitch_crash", "ofa_stall", "controller_outage",
    }
    assert not set(POOL_KINDS) & set(KINDS)
    with pytest.raises(ValueError):
        FaultEvent(1.0, "no_such_kind")
    # Pool kinds validate through the union.
    FaultEvent(1.0, "pool_member_crash", "c1", 2.0)


def test_injector_rejects_pool_plan_without_pool():
    from repro.faults.injector import FaultInjector

    sim = Simulator(seed=0)
    from repro.net.topology import Network

    plan = FaultPlan().pool_member_crash(1.0, "c0")
    injector = FaultInjector(sim, Network(sim), plan=plan)
    with pytest.raises(ValueError):
        injector.start()


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_pool_config_validation():
    with pytest.raises(ValueError):
        ScotchConfig(controllers=0)
    with pytest.raises(ValueError):
        ScotchConfig(pool_min_controllers=3, pool_max_controllers=2)
    with pytest.raises(ValueError):
        ScotchConfig(pool_lease_timeout=0.2, pool_lease_interval=0.5)
    with pytest.raises(ValueError):
        ScotchConfig(pool_scale_down_pps=5000.0, pool_scale_up_pps=4000.0)
