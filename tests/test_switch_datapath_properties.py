"""Differential property test for the lazily-admitting datapath.

:class:`repro.switch.datapath.Datapath` books one event per packet-hop
and admits arrivals late; the event-per-stage server it replaced fired a
link delivery *and* a service completion.  The replaced server is kept
here, verbatim in behaviour, as the oracle: both are driven with the
same random schedule and must agree on every observable — the
``(time, packet, in_port)`` sequence of ``process()`` calls (float
equality, not approximate), the drop and delivery counters and the final
flow-table state.

The schedules reach what the three exactness rules in the module
docstring are about: feeder links with different delays (transmit order
!= arrival order), packet trains, same-instant arrivals on different
ports, ``fail()``/``recover()`` with trains in flight, FlowMod-ADD
bursts that push the OFA's install-rate meter across the degradation
knee and let it age back out of its 1 s window, profiles whose degraded
rate is *above* the normal one, direct ``receive()`` calls and a full
ingress buffer.  Times that must not tie (FlowMods, crashes and direct
submits against link arrivals) sit on disjoint grids; the one tie the
datapath defines itself is pinned in ``tests/test_switch_datapath.py``.

``test_seeded_mutations_are_caught`` breaks rule 1 two ways (no
``settle()`` before the meter moves; capacity read at ``now`` instead of
``at``) and shows the comparison fails for each.
"""

from hypothesis import example, given, strategies as st

import repro.switch.datapath as datapath_module
import repro.switch.switch as switch_module
from repro.net.host import Host
from repro.net.links import DirectedLink
from repro.net.packet import Packet
from repro.net.topology import Network
from repro.openflow.messages import FlowMod
from repro.sim.engine import Simulator
from repro.switch.actions import Output
from repro.switch.datapath import Datapath
from repro.switch.match import Match
from repro.switch.profiles import PICA8_PRONTO_3780
from repro.switch.switch import PhysicalSwitch


class EagerDatapath(Datapath):
    """The deleted event-per-stage service loop: one event when a train
    arrives, one when its service completes, capacity read at the start
    of each service."""

    def __init__(self, sim, switch):
        super().__init__(sim, switch)
        self._busy = False

    def arrive(self, packet, in_port, at, link=None):
        self.sim.schedule_at(at, self._deliver, packet, in_port, link)

    def _deliver(self, packet, in_port, link):
        link.delivered += packet.count
        self.submit(packet, in_port)

    def settle(self):
        pass  # nothing is ever pending: every arrival is its own event

    def submit(self, packet, in_port):
        if not self.switch.alive:
            return
        if len(self._queue) >= datapath_module.INGRESS_BUFFER:
            self.dropped_no_buffer += packet.count
            return
        self._queue.append((packet, in_port))
        if not self._busy:
            self._begin_service()

    def _begin_service(self):
        self._busy = True
        packet, in_port = self._queue.popleft()
        capacity = self.switch.ofa.datapath_capacity()
        self.sim.schedule(packet.count / capacity, self._serve, packet, in_port)

    def _serve(self, packet, in_port):
        self.processed += packet.count
        self.process(packet, in_port)
        if self._queue:
            self._begin_service()
        else:
            self._busy = False


# Dyadic sizes and rates: a 1024-byte packet serialises in exactly 2**-10 s,
# so arrivals from different links can land on the same float instant.
SIZE, RATE_BPS = 1024, float(2 ** 23)
DELAYS = [0.0, 1 / 64, 3 / 64, 1 / 8, 1 / 2]
KNEE = 50.0
# Offsets that keep control actions off the arrival grid (k / 1024).
FLOW_MOD_OFFSET, CRASH_OFFSET, SUBMIT_OFFSET = 1 / 7000, 1 / 9000, 1 / 11000

grid = st.integers(0, 256).map(lambda k: k / 64)  # 0 .. 4 s


@st.composite
def schedules(draw):
    n_links = draw(st.integers(2, 4))
    delays = draw(st.permutations(DELAYS))[:n_links]
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("tx"), grid, st.integers(0, n_links - 1),
                  st.integers(1, 5), st.integers(1, 4)),
        # n back-to-back trains on one link: what fills the buffer
        st.tuples(st.just("tx_burst"), grid, st.integers(0, n_links - 1),
                  st.integers(2, 12), st.integers(1, 4)),
        st.tuples(st.just("flow_mods"), grid, st.integers(2, 40),
                  st.sampled_from([1 / 400, 1 / 100, 1 / 20]),
                  st.integers(2, 4)),
        st.tuples(st.just("fail"), grid),
        st.tuples(st.just("recover"), grid),
        st.tuples(st.just("submit"), grid, st.integers(1, 3),
                  st.integers(1, 4)),
    ), min_size=1, max_size=30))
    return {
        "delays": delays,
        "ops": ops,
        "pps": draw(st.sampled_from([7.0, 300.0])),
        "degraded_pps": draw(st.sampled_from([3.0, 40.0, 1000.0])),
        "buffer": draw(st.sampled_from([3, 200])),
    }


def run(schedule, datapath_cls=Datapath, mutation=None):
    """Drive one switch with ``schedule``; returns everything observable."""
    saved = switch_module.Datapath, datapath_module.INGRESS_BUFFER
    switch_module.Datapath = datapath_cls
    datapath_module.INGRESS_BUFFER = schedule["buffer"]
    try:
        return _run(schedule, mutation)
    finally:
        switch_module.Datapath, datapath_module.INGRESS_BUFFER = saved


def _run(schedule, mutation):
    sim = Simulator(seed=3)
    net = Network(sim)
    profile = PICA8_PRONTO_3780.variant(
        datapath_pps=schedule["pps"],
        datapath_degraded_pps=schedule["degraded_pps"],
        degradation_knee=KNEE)
    sw = net.add(PhysicalSwitch(sim, "sw", profile))
    net.add(Host(sim, "h", "2.2.2.2"))
    net.link("sw", "h")
    out = net.port_between("sw", "h")
    sw.install_static(Match(dst_port=1), 10, [Output(out)])
    links = [DirectedLink(sim, RATE_BPS, delay, sw, port_no + 10)
             for port_no, delay in enumerate(schedule["delays"])]
    datapath, ofa = sw.datapath, sw.ofa

    if mutation == "capacity_at_now":
        real_capacity = ofa.datapath_capacity
        ofa.datapath_capacity = lambda at=None: real_capacity()
    elif mutation == "no_settle_before_observe":
        def unsettled(message):
            datapath.settle = lambda: None
            try:
                ofa.handle_from_controller(message)
            finally:
                del datapath.settle
        sw.channel.switch_sink = unsettled

    calls = []
    real_process = datapath.process

    def spy(packet, in_port):
        calls.append((sim.now, packet.metadata["i"], in_port))
        real_process(packet, in_port)
    datapath.process = spy

    serial = iter(range(10 ** 6))

    def packet(count, dst_port):
        made = Packet("1.1.1.1", "2.2.2.2", src_port=9, dst_port=dst_port,
                      size=SIZE, count=count)
        made.metadata["i"] = next(serial)
        return made

    def transmit(link, counts, dst_port):
        for count in counts:
            links[link].transmit(packet(count, dst_port))

    def submit(count, dst_port):
        sw.receive(packet(count, dst_port), 1)

    def flow_mod(dst_port):
        sw.channel.send_to_switch(FlowMod(
            match=Match(dst_port=dst_port), priority=20, actions=[Output(out)]))

    for op in schedule["ops"]:
        kind, at = op[0], op[1]
        if kind == "tx":
            _, _, link, count, dst_port = op
            sim.schedule_at(at, transmit, link, [count], dst_port)
        elif kind == "tx_burst":
            _, _, link, n, dst_port = op
            sim.schedule_at(at, transmit, link, [1 + i % 3 for i in range(n)], dst_port)
        elif kind == "flow_mods":
            _, _, n, gap, dst_port = op
            for i in range(n):
                sim.schedule_at(at + FLOW_MOD_OFFSET + i * gap, flow_mod, dst_port)
        elif kind == "submit":
            _, _, count, dst_port = op
            sim.schedule_at(at + SUBMIT_OFFSET, submit, count, dst_port)
        else:
            sim.schedule_at(at + CRASH_OFFSET, getattr(sw, kind))
    sim.run()
    table = [(repr(e.match), e.priority, e.packets, e.last_hit_at)
             for e in datapath.table(0).entries()]
    return {
        "process_calls": calls,
        "processed": datapath.processed,
        "dropped_no_buffer": datapath.dropped_no_buffer,
        "punted": datapath.punted,
        "link_delivered": [link.delivered for link in links],
        "table": table,
        "installs": (ofa.installs_attempted, ofa.installs_succeeded),
        "host_packets": net["h"].recv_tap.total_packets,
    }


@given(schedules())
@example({
    # Two trains reach different ports at the same instant (2/64 + 0 ==
    # 1/64 + 1/64, plus equal serialisation), a burst overflows a
    # 3-train buffer, and the switch crashes with trains in flight.
    "delays": [0.0, 1 / 64, 1 / 2], "pps": 7.0, "degraded_pps": 40.0, "buffer": 3,
    "ops": [("tx", 2 / 64, 0, 2, 1), ("tx", 1 / 64, 1, 2, 3),
            ("tx_burst", 1 / 64, 2, 9, 1), ("flow_mods", 0.0, 30, 1 / 100, 3),
            ("fail", 1.0), ("tx", 1.0, 0, 1, 1), ("recover", 2.0),
            ("submit", 2.5, 2, 3)],
})
def test_lazy_admission_is_indistinguishable_from_event_per_stage(schedule):
    assert run(schedule) == run(schedule, EagerDatapath)


#: An idle 7 pps switch.  Train 0 (4 packets) arrives at 1.0 and is
#: booked for 1.0 + 4/7; a FlowMod burst at 100 rules/s starts at 1.1,
#: *inside* that window, so only a settle() before the meter moves lets
#: the train see the quiet meter it met.  Train 1 arrives at 2.15 with
#: the burst still inside the 1 s window (degraded), but by its booked
#: step at 2.15 + 4/7 the window has emptied: capacity must be read at
#: ``at``.
MUTATION_SCHEDULE = {
    "delays": [0.0, 1 / 64],
    "pps": 7.0,
    "degraded_pps": 3.0,
    "buffer": 200,
    "ops": [
        ("tx", 1.0 - 4 / 1024, 0, 4, 1),
        ("flow_mods", 1.1, 10, 1 / 100, 2),
        ("tx", 2.15, 0, 4, 1),
    ],
}


def test_seeded_mutations_are_caught():
    oracle = run(MUTATION_SCHEDULE, EagerDatapath)
    assert run(MUTATION_SCHEDULE) == oracle
    # the schedule does cross the knee, and only for the second train
    (t0, _, _), (t1, _, _) = oracle["process_calls"]
    assert t0 == 1.0 + 4 / 7.0 and t1 > 2.15 + 4 / 3.0 - 1e-9
    for mutation in ("no_settle_before_observe", "capacity_at_now"):
        mutant = run(MUTATION_SCHEDULE, mutation=mutation)
        assert mutant["process_calls"] != oracle["process_calls"], mutation
