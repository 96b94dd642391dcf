"""Tests for duplicate-Packet-In reinjection and held-packet buffering."""

from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.openflow.messages import PacketIn
from repro.testbed.deployment import build_deployment


def make_packet(dep, sport=4242, flag="SYN"):
    return Packet("10.77.0.1", dep.servers[0].ip, src_port=sport, dst_port=80,
                  tcp_flag=flag)


def inject(dep, packet, port=2):
    dep.scotch.packet_in("edge", PacketIn(datapath_id="edge", packet=packet,
                                          in_port=port))


def test_pre_decision_packets_are_held_then_flushed():
    dep = build_deployment(seed=71)
    app = dep.scotch
    first = make_packet(dep)
    inject(dep, first)
    key = first.flow_key
    info = app.flow_db.get(key)
    # More packets arrive before the routing decision: held, not lost.
    for _ in range(3):
        inject(dep, make_packet(dep, flag="DATA"))
    assert len(info.held_packets) == 3
    assert app.duplicate_packet_ins == 3
    dep.sim.run(until=2.0)
    # Decision made; held packets flushed along the chosen path.
    assert info.held_packets == []
    assert info.reinject is not None
    record = dep.servers[0].recv_tap.flow(key)
    assert record.packets_received == 4  # first + 3 held


def test_held_packet_cap_bounds_memory():
    dep = build_deployment(seed=71)
    app = dep.scotch
    inject(dep, make_packet(dep))
    info = app.flow_db.get(make_packet(dep).flow_key)
    for _ in range(100):
        inject(dep, make_packet(dep, flag="DATA"))
    assert len(info.held_packets) == app._HELD_PACKETS_CAP


def test_post_decision_duplicates_reinjected_immediately():
    dep = build_deployment(seed=71)
    app = dep.scotch
    inject(dep, make_packet(dep))
    dep.sim.run(until=2.0)  # decision done
    key = make_packet(dep).flow_key
    before = dep.servers[0].recv_tap.flow(key).packets_received
    inject(dep, make_packet(dep, flag="DATA"))
    dep.sim.run(until=3.0)
    after = dep.servers[0].recv_tap.flow(key).packets_received
    assert after == before + 1


def test_migrated_flow_clears_reinjection_target():
    """After migration the overlay reinjection target is dropped (its
    rules are gone); red rules carry the flow."""
    from repro.net.flow import FlowSpec
    from repro.traffic import SpoofedFlood
    from repro.core.config import ScotchConfig

    dep = build_deployment(seed=3, config=ScotchConfig(overlay_threshold=2))
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=1500.0)
    flood.start(at=0.5, stop_at=15.0)
    key = FlowKey("10.99.0.99", dep.servers[0].ip, 6, 5555, 80)
    dep.attacker.start_flow(FlowSpec(key=key, start_time=3.0, size_packets=3000,
                                     packet_size=1500, rate_pps=500.0, batch=10))
    dep.sim.run(until=12.0)
    info = dep.scotch.flow_db.get(key)
    assert info.route == "physical"
    assert info.reinject is None
