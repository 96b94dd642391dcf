"""Tests for the Barrier-acknowledged reliable-install layer."""

import pytest

from repro.controller.base_app import BaseApp
from repro.controller.controller import OpenFlowController
from repro.controller.reliability import ReliableSender
from repro.core.config import ScotchConfig
from repro.net.topology import Network
from repro.openflow.channel import LinkImpairments
from repro.openflow.messages import ADD, FlowMod, GroupMod
from repro.sim.engine import Simulator
from repro.switch.group_table import Bucket
from repro.switch.match import Match
from repro.switch.actions import Output
from repro.switch.switch import VSwitch


class _BarrierRelay(BaseApp):
    """Minimal app forwarding BarrierReplies to the sender under test."""

    def __init__(self):
        super().__init__()
        self.reliable = None

    def barrier_reply(self, dpid, message):
        self.reliable.barrier_reply(dpid, message)


def build(config=None):
    sim = Simulator(seed=2)
    network = Network(sim)
    switch = network.add(VSwitch(sim, "sw"))
    controller = OpenFlowController(sim, network)
    controller.register_switch(switch)
    relay = controller.add_app(_BarrierRelay())
    config = config or ScotchConfig(
        reliable_install_timeout=0.1,
        reliable_install_timeout_cap=0.4,
        reliable_install_max_retries=3,
    )
    sender = ReliableSender(sim, controller, config)
    relay.reliable = sender
    return sim, switch, sender


def _flow_mod():
    return FlowMod(match=Match(dst_ip="10.0.0.1"), priority=50,
                   actions=[Output(1)], command=ADD)


def test_healthy_channel_single_attempt_acked():
    sim, switch, sender = build()
    acks = []
    sender.send("sw", [_flow_mod()], on_ack=lambda: acks.append(sim.now))
    sim.run(until=2.0)
    assert sender.sent == 1
    assert sender.acked == 1
    assert sender.retries == 0
    assert acks and sender.pending() == 0
    assert len(switch.datapath.table(0)) == 1


def test_lossy_channel_retries_until_acked():
    sim, switch, sender = build(ScotchConfig(
        reliable_install_timeout=0.1,
        reliable_install_timeout_cap=0.4,
        reliable_install_max_retries=10,
    ))
    switch.channel.set_impairments(
        to_switch=LinkImpairments(loss=0.6),
        to_controller=LinkImpairments(loss=0.6),
    )
    sender.send("sw", [_flow_mod()])
    sim.run(until=10.0)
    # With 60% loss each way an attempt succeeds ~16% of the time; the
    # generous retry budget lets the batch land after several retries.
    assert sender.retries > 0
    assert sender.acked == 1
    assert sender.abandoned == 0
    assert len(switch.datapath.table(0)) == 1


def test_dead_channel_abandons_after_retry_budget():
    sim, switch, sender = build()
    switch.channel.disconnect()
    abandoned = []
    sender.send("sw", [_flow_mod()], on_abandon=lambda: abandoned.append(sim.now))
    sim.run(until=10.0)
    assert sender.acked == 0
    assert sender.abandoned == 1
    assert abandoned
    assert sender.pending() == 0
    # Retry budget: initial + max_retries attempts, no more.
    assert sender.retries == 3


def test_backoff_is_capped():
    sim, switch, sender = build(ScotchConfig(
        reliable_install_timeout=0.1,
        reliable_install_timeout_cap=0.2,
        reliable_install_max_retries=4,
    ))
    switch.channel.disconnect()
    abandoned = []
    sender.send("sw", [_flow_mod()], on_abandon=lambda: abandoned.append(sim.now))
    sim.run(until=10.0)
    # Timeouts: 0.1, 0.2, 0.2, 0.2, 0.2 = 0.9s total, not 0.1*2^4.
    assert abandoned and abandoned[0] == pytest.approx(0.9, abs=1e-6)


def test_keyed_send_supersedes_older_batch():
    sim, switch, sender = build()
    switch.channel.disconnect()  # keep the first batch retrying
    sender.send("sw", [_flow_mod()], key=("k",))
    acks = []

    def second():
        switch.channel.reconnect()
        sender.send("sw", [_flow_mod()], key=("k",), on_ack=lambda: acks.append(sim.now))

    sim.schedule(0.15, second)
    sim.run(until=5.0)
    assert sender.superseded == 1
    assert sender.acked == 1  # only the newer batch completes
    assert sender.abandoned == 0  # the stale one was retired, not abandoned
    assert acks


def test_no_duplicate_delivery_after_supersession():
    """A superseded batch's retries stop: the switch must not receive
    interleaved stale GroupMods during a flap."""
    sim, switch, sender = build()
    delivered = []
    original = switch.ofa.handle_from_controller

    def spy(message):
        if isinstance(message, GroupMod):
            delivered.append(message)
        original(message)

    switch.channel.switch_sink = spy

    def group(label):
        return GroupMod(group_id=1,
                        buckets=[Bucket(actions=[Output(1)], label=label)],
                        command=ADD)

    switch.channel.disconnect()
    sender.send("sw", [group("old")], key=("g",))
    sim.schedule(0.15, switch.channel.reconnect)
    sim.schedule(0.16, lambda: sender.send("sw", [group("new")], key=("g",)))
    sim.run(until=5.0)
    assert [g.buckets[0].label for g in delivered] == ["new"]


def test_reinstall_after_vswitch_restart_is_idempotent():
    """The restart wipes dynamic rules; a reliable re-send restores
    exactly one copy (FlowMod ADD replaces same match+priority)."""
    sim, switch, sender = build()
    sender.send("sw", [_flow_mod()])
    sim.run(until=1.0)
    assert len(switch.datapath.table(0)) == 1
    switch.fail()
    switch.restart()
    assert len(switch.datapath.table(0)) == 0  # dynamic state gone
    sender.send("sw", [_flow_mod()])
    sender.send("sw", [_flow_mod()])  # double re-send must not double rules
    sim.run(until=2.0)
    assert len(switch.datapath.table(0)) == 1
    assert sender.acked == 3


def test_unknown_datapath_is_a_noop():
    sim, switch, sender = build()
    sender.send("nonexistent", [_flow_mod()])
    sim.run(until=1.0)
    assert sender.pending() == 0
    assert sender.acked == 0


# ----------------------------------------------------------------------
# stop()/start() and explicit supersession (pool handoff + resync race)
# ----------------------------------------------------------------------
def test_stop_freezes_retries_start_resumes_backoff():
    sim, switch, sender = build(ScotchConfig(
        reliable_install_timeout=0.1,
        reliable_install_timeout_cap=0.4,
        reliable_install_max_retries=10,
    ))
    switch.channel.disconnect()
    sender.send("sw", [_flow_mod()])
    sim.run(until=0.35)  # attempts: t=0, 0.1, 0.3 -> 3 attempts in
    attempts_at_stop = sender.retries
    assert attempts_at_stop > 0
    sender.stop()
    sim.run(until=2.0)
    # Frozen: no retries fire while stopped.
    assert sender.retries == attempts_at_stop
    switch.channel.reconnect()
    sender.start()
    sim.run(until=4.0)
    assert sender.acked == 1
    assert sender.abandoned == 0
    assert len(switch.datapath.table(0)) == 1


def test_stop_start_cycles_under_sustained_loss_converge():
    sim, switch, sender = build(ScotchConfig(
        reliable_install_timeout=0.1,
        reliable_install_timeout_cap=0.4,
        reliable_install_max_retries=20,
    ))
    switch.channel.set_impairments(
        to_switch=LinkImpairments(loss=0.6),
        to_controller=LinkImpairments(loss=0.6),
    )
    acks = []
    sender.send("sw", [_flow_mod()], key=("k",),
                on_ack=lambda: acks.append(sim.now))
    for t in (0.15, 0.45, 0.8):
        sim.schedule(t, sender.stop)
        sim.schedule(t + 0.1, sender.start)
    sim.run(until=20.0)
    assert sender.acked == 1 and acks
    assert sender.abandoned == 0
    # Idempotent re-install: the table holds exactly one copy no matter
    # how many replays the stop/start cycles caused.
    assert len(switch.datapath.table(0)) == 1


def test_send_while_stopped_queues_until_start():
    sim, switch, sender = build()
    sender.stop()
    sender.send("sw", [_flow_mod()], key=("a",))
    sim.run(until=2.0)
    assert sender.acked == 0
    assert len(switch.datapath.table(0)) == 0  # nothing transmitted
    sender.start()
    sim.run(until=4.0)
    assert sender.acked == 1
    assert len(switch.datapath.table(0)) == 1


def test_keyed_supersession_applies_across_stop_start():
    sim, switch, sender = build()
    delivered = []
    original = switch.ofa.handle_from_controller

    def spy(message):
        if isinstance(message, GroupMod):
            delivered.append(message.buckets[0].label)
        original(message)

    switch.channel.switch_sink = spy

    def group(label):
        return GroupMod(group_id=1,
                        buckets=[Bucket(actions=[Output(1)], label=label)],
                        command=ADD)

    sender.stop()
    sender.send("sw", [group("old")], key=("g",))
    sender.send("sw", [group("new")], key=("g",))
    sender.start()
    sim.run(until=5.0)
    assert sender.superseded == 1
    assert sender.acked == 1
    assert delivered == ["new"]


def test_supersede_cancels_inflight_batch_without_replacement():
    sim, switch, sender = build()
    switch.channel.disconnect()
    sender.send("sw", [_flow_mod()], key=("k",))
    assert sender.supersede(("k",)) is True
    assert sender.supersede(("k",)) is False  # already gone
    switch.channel.reconnect()
    sim.run(until=10.0)
    # Neither acked nor abandoned: the batch was retired.
    assert sender.acked == 0 and sender.abandoned == 0
    assert sender.pending() == 0
    assert len(switch.datapath.table(0)) == 0


def test_supersede_all_retires_every_key():
    sim, switch, sender = build()
    switch.channel.disconnect()
    sender.send("sw", [_flow_mod()], key=("a",))
    sender.send("sw", [_flow_mod()], key=("b",))
    assert sender.supersede_all() == 2
    sim.run(until=10.0)
    assert sender.acked == 0 and sender.abandoned == 0
    assert sender.pending() == 0


def test_start_abandons_batches_with_exhausted_budget():
    # Timeouts 0.1/0.2/0.4/0.4: the 4th (final) attempt transmits at
    # t=0.7 with attempts == max_retries + 1.  A stop() inside that
    # window followed by start() must abandon, not replay — otherwise
    # the replay would push attempts past the invariant-checked budget.
    sim, switch, sender = build()
    switch.channel.disconnect()
    abandoned = []
    sender.send("sw", [_flow_mod()],
                on_abandon=lambda: abandoned.append(sim.now))
    sim.run(until=0.9)
    sender.stop()
    sender.start()
    assert abandoned and sender.abandoned == 1
    assert sender.max_attempts_in_flight() == 0


def test_restart_replay_is_idempotent_on_the_switch():
    sim, switch, sender = build()
    sender.send("sw", [_flow_mod()], key=("k",))
    sim.run(until=0.05)  # transmitted, barrier still in flight
    sender.stop()
    sender.start()       # replays the same batch
    sim.run(until=2.0)
    assert len(switch.datapath.table(0)) == 1  # ADD-as-replace, one copy
