"""Tests for the OFA model — the calibrated control-path bottleneck."""

from hypothesis import example, given, settings, strategies as st

from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.openflow.messages import (
    ADD,
    DELETE,
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    FlowMod,
    FlowStatsReply,
    FlowStatsRequest,
    GroupMod,
    PacketIn,
    PacketOut,
)
from repro.sim.engine import Simulator
from repro.sim.ratelimit import RateEstimator
from repro.switch.actions import Output
from repro.switch.group_table import Bucket
from repro.switch.match import Match
from repro.switch.profiles import IDEAL_SWITCH, PICA8_PRONTO_3780
from repro.switch.switch import PhysicalSwitch


def build(profile=PICA8_PRONTO_3780):
    sim = Simulator()
    net = Network(sim)
    sw = net.add(PhysicalSwitch(sim, "sw", profile))
    inbox = []
    sw.channel.controller_sink = lambda dpid, msg: inbox.append((dpid, msg))
    return sim, sw, inbox


def flow_mod(index, **kwargs):
    key = FlowKey(f"10.0.{index >> 8 & 255}.{index & 255}", "2.2.2.2", 6,
                  1024 + index % 60000, 80)
    return FlowMod(match=Match.for_flow(key), priority=100, actions=[Output(1)], **kwargs)


class TestPacketIn:
    def test_packet_in_rate_limited(self):
        sim, sw, inbox = build()
        for i in range(100):
            sw.ofa.punt(Packet("1.1.1.1", "2.2.2.2", src_port=i, dst_port=80), 1)
        sim.run(until=0.25)
        # 200 msg/s for 0.25 s -> ~50 Packet-Ins.
        packet_ins = [m for _, m in inbox if isinstance(m, PacketIn)]
        assert 40 <= len(packet_ins) <= 60

    def test_queue_overflow_drops(self):
        sim, sw, inbox = build()
        queue_cap = sw.profile.packet_in_queue
        for i in range(queue_cap + 200):
            sw.ofa.punt(Packet("1.1.1.1", "2.2.2.2", src_port=i % 60000, dst_port=80), 1)
        assert sw.ofa.packet_ins_dropped >= 150

    def test_packet_in_carries_context(self):
        sim, sw, inbox = build(IDEAL_SWITCH)
        packet = Packet("1.1.1.1", "2.2.2.2", src_port=7, dst_port=80)
        packet.popped_labels.extend([500, 600])
        sw.ofa.punt(packet, 3)
        sim.run()
        _, message = inbox[0]
        assert message.in_port == 3
        assert message.metadata["tunnel_id"] == 500
        assert message.metadata["inner_label"] == 600
        assert message.datapath_id == "sw"


class TestInstall:
    def test_lossless_below_threshold(self):
        sim, sw, _ = build()
        gap = 1.0 / 150.0
        for i in range(300):
            sim.schedule(i * gap, sw.ofa.handle_from_controller, flow_mod(i, idle_timeout=60))
        sim.run()
        assert sw.ofa.installs_failed == 0
        assert sw.ofa.installs_succeeded == 300

    def test_lossy_beyond_threshold(self):
        sim, sw, _ = build()
        gap = 1.0 / 800.0
        for i in range(1600):
            sim.schedule(i * gap, sw.ofa.handle_from_controller, flow_mod(i, idle_timeout=60))
        sim.run()
        assert sw.ofa.installs_failed > 100
        # Successful rate should land near the Fig. 9 curve (~620/s over 2 s).
        assert 1000 < sw.ofa.installs_succeeded < 1500

    def test_success_flattens_at_plateau(self):
        sim, sw, _ = build()
        gap = 1.0 / 5000.0
        for i in range(10000):
            sim.schedule(i * gap, sw.ofa.handle_from_controller, flow_mod(i, idle_timeout=60))
        sim.run()
        rate = sw.ofa.installs_succeeded / 2.0
        assert rate < sw.profile.install_saturated_rate * 1.05

    def test_table_full_counts_failure(self):
        sim, sw, _ = build(PICA8_PRONTO_3780.variant(tcam_capacity=5))
        for i in range(10):
            sim.schedule(i * 0.1, sw.ofa.handle_from_controller, flow_mod(i, idle_timeout=0))
        sim.run()
        assert sw.ofa.table_full_failures == 5
        assert sw.ofa.installs_succeeded == 5

    def test_delete_applies(self):
        sim, sw, _ = build(IDEAL_SWITCH)
        mod = flow_mod(1)
        sw.ofa.handle_from_controller(mod)
        sim.run()
        assert len(sw.datapath.table(0)) == 1
        sw.ofa.handle_from_controller(
            FlowMod(match=mod.match, priority=100, command=DELETE)
        )
        sim.run()
        assert len(sw.datapath.table(0)) == 0

    def test_datapath_degradation_beyond_knee(self):
        sim, sw, _ = build()
        assert sw.ofa.datapath_capacity() == sw.profile.datapath_pps
        gap = 1.0 / 2000.0  # beyond the 1300/s knee
        for i in range(1000):
            sim.schedule(i * gap, sw.ofa.handle_from_controller, flow_mod(i))
        sim.run(until=0.4)
        assert sw.ofa.datapath_capacity() == sw.profile.datapath_degraded_pps

    def test_degradation_recovers_when_writes_stop(self):
        sim, sw, _ = build()
        gap = 1.0 / 2000.0
        for i in range(500):
            sim.schedule(i * gap, sw.ofa.handle_from_controller, flow_mod(i))
        sim.run(until=0.2)
        assert sw.ofa.datapath_capacity() == sw.profile.datapath_degraded_pps
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sw.ofa.datapath_capacity() == sw.profile.datapath_pps


BUDGET_KNEE = 50.0

#: One FlowMod burst: the pause before it (some longer than the 1 s
#: window), how many FlowMods, and their gap (above and below the knee).
_bursts = st.lists(st.tuples(
    st.sampled_from([0.0, 0.3, 0.999, 1.0, 1.5, 2.5]),
    st.integers(1, 40),
    st.sampled_from([1 / 400, 1 / 100, 1 / 50, 1 / 30, 1 / 10]),
), min_size=1, max_size=6)


@given(_bursts, st.sampled_from([1 / 64, 1 / 17, 0.1]),
       st.lists(st.sampled_from([0.0, 1 / 128, 0.05, 0.4]), min_size=1,
                max_size=8))
@example([(0.0, 30, 1 / 400), (1.5, 5, 1 / 10), (0.0, 40, 1 / 100)],
         1 / 64, [0.0, 0.05])
@settings(max_examples=100, deadline=None)
def test_cached_budget_matches_the_uncached_rule(bursts, step, lags):
    """``datapath_capacity`` caches the Fig. 10 budget.  At queries of
    nondecreasing ``at`` (at or before now, as the datapath asks) it must
    equal ``degraded if rate(at) > knee else pps`` read from an
    independent :class:`RateEstimator` fed the same FlowMod times."""
    profile = PICA8_PRONTO_3780.variant(
        datapath_pps=300.0, datapath_degraded_pps=7.0,
        degradation_knee=BUDGET_KNEE)
    sim, sw, _ = build(profile)
    reference = RateEstimator(window_events=32, window_seconds=1.0)
    answers = []

    def flow_mod_at(index):
        sw.ofa.handle_from_controller(flow_mod(index))
        reference.observe(sim.now)
        reference.rate(sim.now)  # the OFA's own success-probability read

    index, t = 0, 0.0
    for pause, count, gap in bursts:
        t += pause
        for _ in range(count):
            sim.schedule_at(t, flow_mod_at, index)
            index, t = index + 1, t + gap
    horizon = t + 1.5
    last_at = [0.0]

    def query(lag):
        at = max(last_at[0], sim.now - lag)
        last_at[0] = at
        want = (profile.datapath_degraded_pps
                if reference.rate(at) > BUDGET_KNEE else profile.datapath_pps)
        assert sw.ofa.datapath_capacity(at) == want, (sim.now, at)
        answers.append(want)

    for k in range(int(horizon / step) + 1):
        sim.schedule_at(k * step + step / 3, query, lags[k % len(lags)])
    sim.run()
    assert answers


class TestControlMessages:
    def test_group_mod_add_modify_delete(self):
        sim, sw, _ = build(IDEAL_SWITCH)
        sw.ofa.handle_from_controller(
            GroupMod(group_id=1, buckets=[Bucket([Output(1)])], command=ADD)
        )
        assert 1 in sw.datapath.groups
        sw.ofa.handle_from_controller(
            GroupMod(group_id=1, buckets=[Bucket([Output(2)]), Bucket([Output(3)])], command=ADD)
        )
        assert len(sw.datapath.groups.get(1).buckets) == 2  # ADD upserts
        sw.ofa.handle_from_controller(GroupMod(group_id=1, command=DELETE))
        assert 1 not in sw.datapath.groups

    def test_packet_out_executes_actions(self):
        sim, sw, inbox = build(IDEAL_SWITCH)
        packet = Packet("1.1.1.1", "2.2.2.2")
        sw.ofa.handle_from_controller(PacketOut(packet=packet, actions=[Output(99)]))
        sim.run()
        assert sw.datapath.dropped_no_route == 1  # port 99 does not exist

    def test_flow_stats_reply(self):
        sim, sw, inbox = build(IDEAL_SWITCH)
        sw.ofa.handle_from_controller(flow_mod(1, cookie="tagged"))
        sim.run()
        sw.ofa.handle_from_controller(FlowStatsRequest())
        sim.run()
        replies = [m for _, m in inbox if isinstance(m, FlowStatsReply)]
        assert len(replies) == 1
        assert len(replies[0].entries) == 1
        assert replies[0].entries[0].cookie == "tagged"

    def test_flow_stats_filter_by_table(self):
        sim, sw, inbox = build(IDEAL_SWITCH)
        sw.ofa.handle_from_controller(flow_mod(1, table_id=0))
        sw.ofa.handle_from_controller(flow_mod(2, table_id=1))
        sim.run()
        sw.ofa.handle_from_controller(FlowStatsRequest(table_id=1))
        sim.run()
        replies = [m for _, m in inbox if isinstance(m, FlowStatsReply)]
        assert len(replies[0].entries) == 1
        assert replies[0].entries[0].table_id == 1

    def test_echo_and_barrier(self):
        sim, sw, inbox = build(IDEAL_SWITCH)
        echo = EchoRequest()
        barrier = BarrierRequest()
        sw.ofa.handle_from_controller(echo)
        sw.ofa.handle_from_controller(barrier)
        sim.run()
        kinds = {type(m) for _, m in inbox}
        assert EchoReply in kinds and BarrierReply in kinds
        echo_reply = next(m for _, m in inbox if isinstance(m, EchoReply))
        assert echo_reply.request_xid == echo.xid

    def test_dead_switch_silent(self):
        sim, sw, inbox = build(IDEAL_SWITCH)
        sw.fail()
        sw.ofa.handle_from_controller(EchoRequest())
        sim.run()
        assert inbox == []
