"""Unit-ish tests for the ScotchApp's Packet-In handling and routing
decisions (deployment-scale behaviours live in test_core_integration)."""

import pytest

from repro.core.config import ScotchConfig
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.openflow.messages import PacketIn
from repro.testbed.deployment import build_deployment
from repro.traffic import SpoofedFlood


def make_packet(sport=1000, dst="10.0.0.10"):
    return Packet("10.50.0.1", dst, src_port=sport, dst_port=80)


def test_direct_packet_in_recorded_with_port():
    dep = build_deployment(seed=31)
    app = dep.scotch
    message = PacketIn(datapath_id="edge", packet=make_packet(dst=dep.servers[0].ip),
                       in_port=7)
    app.packet_in("edge", message)
    info = app.flow_db.get(message.packet.flow_key)
    assert info.first_hop_switch == "edge"
    assert info.ingress_port == 7
    assert info.entry_vswitch is None


def test_overlay_packet_in_attributed_via_labels():
    dep = build_deployment(seed=31)
    app = dep.scotch
    overlay = app.overlay
    tunnel = overlay.switch_tunnels[("edge", overlay.assignment["edge"][0])]
    label = overlay.port_label("edge", 2)
    packet = make_packet(dst=dep.servers[0].ip)
    message = PacketIn(
        datapath_id=overlay.assignment["edge"][0],
        packet=packet,
        in_port=1,
        metadata={"tunnel_id": tunnel.tunnel_id, "inner_label": label},
    )
    app.packet_in(overlay.assignment["edge"][0], message)
    info = app.flow_db.get(packet.flow_key)
    assert info.first_hop_switch == "edge"
    assert info.ingress_port == 2
    assert info.entry_vswitch == overlay.assignment["edge"][0]


def test_duplicate_packet_ins_counted_not_requeued():
    dep = build_deployment(seed=31)
    app = dep.scotch
    packet = make_packet(dst=dep.servers[0].ip)
    for _ in range(3):
        app.packet_in("edge", PacketIn(datapath_id="edge", packet=packet, in_port=1))
    assert app.duplicate_packet_ins == 2
    assert len(app.flow_db) == 1


def test_host_vswitch_packet_in_handled_lazily():
    """A Packet-In from an unmanaged (host) vSwitch — e.g. a reverse/ACK
    flow originating behind it — gets the vSwitch a lazily-created
    scheduler and normal flow handling."""
    dep = build_deployment(seed=31)
    app = dep.scotch
    hv = dep.host_vswitches[0]
    packet = make_packet(dst=dep.servers[0].ip)
    app.packet_in(hv.name, PacketIn(datapath_id=hv.name, packet=packet, in_port=1))
    assert app.unattributed_packet_ins == 1  # counted, then handled
    assert hv.name in app.schedulers
    assert len(app.flow_db) == 1
    assert app.flow_db.get(packet.flow_key).first_hop_switch == hv.name


def test_truly_unknown_dpid_ignored():
    dep = build_deployment(seed=31)
    app = dep.scotch
    app.packet_in("ghost", PacketIn(datapath_id="ghost", packet=make_packet(), in_port=1))
    assert app.unattributed_packet_ins == 1
    assert len(app.flow_db) == 0


def test_unroutable_destination_dropped():
    dep = build_deployment(seed=31)
    app = dep.scotch
    packet = make_packet(dst="99.99.99.99")
    app.packet_in("edge", PacketIn(datapath_id="edge", packet=packet, in_port=1))
    dep.sim.run(until=1.0)
    assert app.unroutable >= 1
    assert app.flow_db.get(packet.flow_key).route == "dropped"


def test_hash_entry_selection_matches_group_hash():
    """The controller's predicted entry vSwitch must equal the one the
    data-plane select group actually sends the flow to, for any flow."""
    dep = build_deployment(seed=31)
    app = dep.scotch
    overlay = app.overlay
    from repro.switch.group_table import GroupEntry

    group = GroupEntry(1, overlay.group_buckets("edge"))
    for sport in range(50):
        key = FlowKey("10.50.0.1", dep.servers[0].ip, 6, 2000 + sport, 80)
        predicted = app._hash_entry_vswitch("edge", key)
        packet = Packet(key.src_ip, key.dst_ip, proto=key.proto,
                        src_port=key.src_port, dst_port=key.dst_port)
        actual = group.select_bucket(packet).label
        assert predicted == actual


def test_activation_is_resent_and_idempotent():
    dep = build_deployment(seed=32)
    app = dep.scotch
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
    flood.start(at=0.5, stop_at=8.0)
    dep.sim.run(until=8.0)
    assert app.activations == 1
    # Despite the resends, exactly one default rule per port and one group.
    from repro.core.config import PRIORITY_SCOTCH_DEFAULT

    defaults = [e for e in dep.edge.datapath.table(0).entries()
                if e.priority == PRIORITY_SCOTCH_DEFAULT]
    assert len(defaults) == len(dep.edge.ports)
    assert len(dep.edge.datapath.groups) == 1


def test_scotch_config_validation():
    with pytest.raises(ValueError):
        ScotchConfig(overlay_threshold=100, drop_threshold=50)
    with pytest.raises(ValueError):
        ScotchConfig(vswitches_per_switch=0)
    # R = 0 would divide by zero at the first overlay drain, or fall
    # back silently to the switch profile's lossless rate.
    with pytest.raises(ValueError):
        ScotchConfig(overlay_install_rate=0.0)
    with pytest.raises(ValueError):
        ScotchConfig(install_rate=0.0)


def test_every_config_field_has_a_setter():
    """Every ScotchConfig field is set by keyword in some
    ``ScotchConfig(...)`` or ``replace(...)`` call of a program: the
    package, the examples or the benchmarks.  Tests are not callers: a
    field only a test sets is a constant, stated next to
    ``STATS_INTERVAL`` in core/config.py (a test that needs another
    value patches the constant)."""
    import ast
    import dataclasses
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    set_by_keyword = set()
    for folder in ("src", "examples", "benchmarks"):
        for path in (root / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("ScotchConfig", "replace"):
                    set_by_keyword.update(k.arg for k in node.keywords if k.arg)
    unset = sorted(f.name for f in dataclasses.fields(ScotchConfig)
                   if f.name not in set_by_keyword)
    assert unset == []


def test_every_attribute_set_on_self_has_a_reader():
    """State nothing reads is not kept.  Every attribute assigned on
    ``self`` under src/repro is read somewhere in the package, the
    examples, the benchmarks or the tests: as an attribute load on any
    object, or as a string constant equal to its name (registry sources
    such as ``metrics.counter(name, obj, "attr")``, names read through
    ``getattr``, ``__slots__``).  ``self.x += 1`` writes, never reads."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    assigned = {}
    read = set()
    for folder in ("src", "examples", "benchmarks", "tests"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                    elif (folder == "src" and isinstance(node.ctx, ast.Store)
                          and isinstance(node.value, ast.Name)
                          and node.value.id == "self"):
                        where = f"{path.relative_to(root)}:{node.lineno}"
                        assigned.setdefault(node.attr, where)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    unread = sorted(f"{name} ({where})" for name, where in assigned.items()
                    if name not in read)
    assert unread == []
