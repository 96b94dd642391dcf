"""System-level invariants, including randomized-topology properties."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.controller.controller import OpenFlowController
from repro.core.baselines import ReactiveForwardingApp
from repro.net.flow import FlowKey, FlowSpec
from repro.net.host import Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.profiles import IDEAL_SWITCH
from repro.switch.switch import PhysicalSwitch
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


def test_no_forwarding_loops_under_scotch():
    """No delivered packet visits any node more than a small constant
    number of times, even with overlay detours and middlebox legs."""
    dep = build_deployment(seed=81, with_firewall=True)
    sim = dep.sim
    max_revisits = []

    for server in dep.servers:
        def on_rx(packet):
            counts = {}
            for hop in packet.hops:
                counts[hop] = counts.get(hop, 0) + 1
            max_revisits.append(max(counts.values()))
        server.on_receive = on_rx

    flood = SpoofedFlood(sim, dep.attacker, dep.servers[0].ip, rate_fps=1800.0)
    client = NewFlowSource(sim, dep.client, dep.servers[0].ip, rate_fps=80.0)
    flood.start(at=0.5, stop_at=10.0)
    client.start(at=0.5, stop_at=10.0)
    sim.run(until=12.0)
    assert max_revisits
    # A node may legitimately appear several times — e.g. a ToR carries
    # the switch->entry tunnel, the entry->S_U tunnel, the S_D->agg
    # tunnel, and the delivery tunnel of one middlebox-chained overlay
    # route (4 transits) — but the count is bounded by the fixed number
    # of tunnel legs, never unbounded (a loop would explode it).
    assert max(max_revisits) <= 5


def test_packet_conservation():
    """The server never receives more packets of a flow than were sent
    (no duplication from reinjection/buffering)."""
    dep = build_deployment(seed=82)
    sim = dep.sim
    client = NewFlowSource(sim, dep.client, dep.servers[0].ip, rate_fps=100.0)
    flood = SpoofedFlood(sim, dep.attacker, dep.servers[0].ip, rate_fps=1500.0)
    client.start(at=0.5, stop_at=10.0)
    flood.start(at=0.5, stop_at=10.0)
    sim.run(until=14.0)
    recv = dep.servers[0].recv_tap
    for key, sent_record in dep.client.sent_tap.records.items():
        got = recv.flow(key)
        if got is not None:
            assert got.packets_received <= sent_record.packets_sent


def test_controller_rate_never_exceeds_install_budget():
    """FlowMods actually sent toward a managed switch respect ~R
    (plus the direct first-hop installs, also paced by the service)."""
    dep = build_deployment(seed=83)
    sim = dep.sim
    flood = SpoofedFlood(sim, dep.attacker, dep.servers[0].ip, rate_fps=3000.0)
    flood.start(at=0.5, stop_at=10.0)
    sim.run(until=10.5)
    duration = 10.0
    for name in ("spine", "tor0", "tor1"):
        scheduler = dep.scotch.schedulers[name]
        assert scheduler.mods_sent <= 200 * duration * 1.15


@st.composite
def tree_topology(draw):
    """A random tree of 2-5 switches with 2-4 hosts on random switches."""
    n_switches = draw(st.integers(min_value=2, max_value=5))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n_switches)]
    n_hosts = draw(st.integers(min_value=2, max_value=4))
    attachments = [draw(st.integers(min_value=0, max_value=n_switches - 1))
                   for _ in range(n_hosts)]
    return parents, attachments


@given(tree_topology(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_reactive_forwarding_delivers_on_any_tree(topology, sport):
    """Property: on any tree topology of ideal switches, a reactive
    controller delivers a multi-packet flow between any two hosts."""
    parents, attachments = topology
    sim = Simulator(seed=7)
    net = Network(sim)
    controller = OpenFlowController(sim, net)
    for index in range(len(parents) + 1):
        switch = net.add(PhysicalSwitch(sim, f"s{index}", IDEAL_SWITCH))
        controller.register_switch(switch)
    for child, parent in enumerate(parents, start=1):
        net.link(f"s{child}", f"s{parent}")
    hosts = []
    for index, attach in enumerate(attachments):
        host = net.add(Host(sim, f"h{index}", f"10.0.0.{index + 1}"))
        net.link(host.name, f"s{attach}")
        hosts.append(host)
    controller.add_app(ReactiveForwardingApp())

    src, dst = hosts[0], hosts[-1]
    if src.ip == dst.ip:
        return
    key = FlowKey(src.ip, dst.ip, 6, 1024 + sport % 60000, 80)
    src.start_flow(FlowSpec(key=key, start_time=0.1, size_packets=8, rate_pps=50.0))
    sim.run(until=2.0)
    record = dst.recv_tap.flow(key)
    assert record is not None
    assert record.packets_received >= 6  # early packets may race the rules
