"""Protocol and lifecycle details not covered elsewhere."""

from repro.controller.controller import OpenFlowController
from repro.net.flow import FlowKey, FlowSpec
from repro.net.host import EchoServer, Host
from repro.net.topology import Network
from repro.openflow.messages import MODIFY, FlowMod
from repro.sim.engine import Simulator
from repro.switch.actions import Drop, Output
from repro.switch.match import Match
from repro.switch.profiles import IDEAL_SWITCH
from repro.switch.switch import PhysicalSwitch


def build_switch():
    sim = Simulator()
    net = Network(sim)
    sw = net.add(PhysicalSwitch(sim, "s0", IDEAL_SWITCH))
    controller = OpenFlowController(sim, net)
    controller.register_switch(sw)
    return sim, sw, controller


KEY = FlowKey("1.1.1.1", "2.2.2.2", 6, 10, 80)


def test_flow_mod_modify_replaces_actions():
    """OFPFC_MODIFY: same match+priority, new actions — the entry is
    replaced in place (same semantics as our ADD-upsert)."""
    sim, sw, controller = build_switch()
    sw.channel.send_to_switch(FlowMod(match=Match.for_flow(KEY), priority=100,
                                      actions=[Output(1)]))
    sim.run(until=0.5)
    sw.channel.send_to_switch(FlowMod(match=Match.for_flow(KEY), priority=100,
                                      actions=[Drop()], command=MODIFY))
    sim.run(until=1.0)
    entries = sw.datapath.table(0).entries()
    assert len(entries) == 1
    assert entries[0].actions == [Drop()]


def test_activation_resend_stops_after_withdrawal():
    """_send_activation re-sends are cancelled once the switch is no
    longer active (withdrawn between resends)."""
    from repro.testbed.deployment import build_deployment
    from repro.core.config import PRIORITY_SCOTCH_DEFAULT

    dep = build_deployment(seed=44)
    app = dep.scotch
    app.overlay.active.add("edge")
    app.groups_installed.add("edge")
    app._send_activation("edge", resends=2)
    # Withdraw immediately; the scheduled resends must no-op.
    app.overlay.active.discard("edge")
    dep.sim.run(until=1.0)
    # Only the first send's rules are present (no re-adds after removal
    # would matter — but crucially, no crash and no rules re-added later).
    before = len([e for e in dep.edge.datapath.table(0).entries()
                  if e.priority == PRIORITY_SCOTCH_DEFAULT])
    dep.sim.run(until=2.0)
    after = len([e for e in dep.edge.datapath.table(0).entries()
                 if e.priority == PRIORITY_SCOTCH_DEFAULT])
    assert before == after


def test_echo_server_acks_batched_trains_with_matching_count():
    sim = Simulator()
    net = Network(sim)
    client = net.add(Host(sim, "c", "10.0.0.1"))
    server = net.add(EchoServer(sim, "s", "10.0.0.2"))
    net.link("c", "s")
    key = FlowKey("10.0.0.1", "10.0.0.2", 6, 5, 80)
    client.start_flow(FlowSpec(key=key, start_time=0.1, size_packets=20,
                               rate_pps=200.0, batch=5))
    sim.run()
    assert server.acks_sent == 20  # count-aware (4 trains of 5)
    reverse = client.recv_tap.flow(key.reversed())
    assert reverse.packets_received == 20


def test_group_mod_helper_roundtrip():
    from repro.switch.group_table import Bucket

    sim, sw, controller = build_switch()
    controller.group_mod("s0", group_id=5, buckets=[Bucket([Output(1)])])
    sim.run(until=0.5)
    assert sw.datapath.groups.get(5) is not None
    controller.group_mod("s0", group_id=5, buckets=[], command="delete")
    sim.run(until=1.0)
    assert sw.datapath.groups.get(5) is None


def test_lazy_scheduler_uses_switch_profile_rate():
    """Host vSwitches admitted lazily get their own (fast) install rate,
    not the physical switches' R."""
    from repro.openflow.messages import PacketIn
    from repro.net.packet import Packet
    from repro.testbed.deployment import build_deployment

    dep = build_deployment(seed=45)
    app = dep.scotch
    hv = dep.host_vswitches[0]
    packet = Packet("10.0.9.1", dep.servers[0].ip, src_port=9, dst_port=80)
    app.packet_in(hv.name, PacketIn(datapath_id=hv.name, packet=packet, in_port=1))
    scheduler = app.schedulers[hv.name]
    assert scheduler.rate == hv.profile.install_lossless_rate
