"""One runner and one :class:`Figure` entry per reproduced figure.

Each runner builds the right testbed, drives the paper's workload, and
returns the numbers the figure plots.  The ``FIGURES`` table at the end
is the one description of how each becomes a table — sweep, columns,
title, ``--quick`` reduction — which ``scotch-repro fig``/``report``/
``list`` and benchmarks/bench_figures.py all read; EXPERIMENTS.md
records paper-vs-measured.

All runners but ``lb_run`` (fixed schedule and seed) take a ``seed`` and
(where it matters) scaled-down durations so the unit tests can exercise
them quickly; the table's full sweeps use the paper-scale values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.baselines import (
    DedicatedPortApp,
    DropPolicingApp,
    ProactiveApp,
    ReactiveForwardingApp,
)
from repro.core.config import ScotchConfig
from repro.net.flow import FlowKey, FlowSpec
from repro.net.tap import client_flow_failure_fraction
from repro.net.topology import Network
from repro.obs.metrics import cdf_points, mean, percentile
from repro.obs.report import ascii_plot, format_table, sparkline
from repro.openflow.messages import FlowMod
from repro.sim.engine import Simulator
from repro.switch.actions import Output
from repro.switch.group_table import GroupEntry
from repro.switch.match import Match
from repro.switch.profiles import (
    HP_PROCURVE_6600,
    OPEN_VSWITCH,
    PICA8_PRONTO_3780,
    SwitchProfile,
)
from repro.switch.switch import OpenFlowSwitch, VSwitch
from repro.testbed.deployment import Deployment, build_deployment
from repro.testbed.single_switch import SERVER_IP, build_single_switch
from repro.traffic import NewFlowSource, SpoofedFlood
from repro.traffic.sizes import FixedSize, HeavyTailedSizes
from repro.traffic.trace import TraceReplayer, generate_trace

#: The paper's attack-rate sweep (§3.2: 100 to 3800 flows/sec).
FIG3_ATTACK_RATES = (100, 500, 1000, 2000, 3000, 3800)
FIG3_PROFILES = (HP_PROCURVE_6600, PICA8_PRONTO_3780, OPEN_VSWITCH)
#: Control-plane schemes a deployment can run under: Scotch and the
#: alternatives §4 considers and rejects (repro.core.baselines).
SCHEMES = ("vanilla", "proactive", "drop", "dedicated", "scotch")


# ----------------------------------------------------------------------
# Shared by the deployment-scale runners
# ----------------------------------------------------------------------
def build_scheme(scheme: str, **deployment_kwargs) -> Deployment:
    """The Fig. 5 deployment (``build_deployment`` keywords) controlled
    by ``scheme``: the Scotch app, or one baseline app in its place."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "scotch":
        return build_deployment(**deployment_kwargs)
    dep = build_deployment(add_scotch_app=False, **deployment_kwargs)
    managed = [s.name for s in dep.switches]
    if scheme == "vanilla":
        app = ReactiveForwardingApp()
    elif scheme == "proactive":
        app = ProactiveApp(managed)
    elif scheme == "drop":
        app = DropPolicingApp(managed)
    else:
        # Dedicated port: wire a collector vSwitch onto the edge
        # switch's spare port.
        collector = dep.network.add(
            VSwitch(dep.sim, "collector", OPEN_VSWITCH.variant(packet_in_rate=20000.0))
        )
        dep.network.link("collector", "edge", 1e9)
        dep.controller.register_switch(collector)
        app = DedicatedPortApp(managed, collectors={"edge": "collector"})
    dep.controller.add_app(app)
    return dep


def run_flood(
    dep: Deployment, client_rate: float, attack_rate: float, duration: float,
    *more_sources: NewFlowSource,
) -> Tuple[float, float, float]:
    """The schedule the deployment-scale flood runners share: the client
    (and any ``more_sources``) from 0.5 s, a spoofed flood at the first
    server from 1.0 s, all until the end of the measurement window
    [2, 2 + duration), and 2 s more for the run to drain.  Returns the
    client's flow failure fraction in the window, and the window."""
    server = dep.servers[0]
    client = NewFlowSource(dep.sim, dep.client, server.ip, rate_fps=client_rate)
    attack = SpoofedFlood(dep.sim, dep.attacker, server.ip, rate_fps=attack_rate)
    start, end = 2.0, 2.0 + duration
    for source in (client,) + more_sources:
        source.start(at=0.5, stop_at=end)
    attack.start(at=1.0, stop_at=end)
    dep.sim.run(until=end + 2.0)
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, server.recv_tap, start=start, end=end
    )
    return failure, start, end


# ----------------------------------------------------------------------
# Fig. 3 — control-plane bottleneck under attack
# ----------------------------------------------------------------------
def fig3_point(
    profile: SwitchProfile,
    attack_rate: float,
    client_rate: float = 100.0,
    duration: float = 10.0,
    seed: int = 1,
) -> float:
    """Client flow failure fraction for one (switch, attack rate) point."""
    bed = build_single_switch(profile=profile, seed=seed)
    client = NewFlowSource(bed.sim, bed.client, SERVER_IP, rate_fps=client_rate)
    attack = SpoofedFlood(bed.sim, bed.attacker, SERVER_IP, rate_fps=attack_rate)
    warmup = 1.0
    client.start(at=0.5, stop_at=0.5 + warmup + duration)
    attack.start(at=0.5, stop_at=0.5 + warmup + duration)
    bed.sim.run(until=0.5 + warmup + duration + 2.0)
    return client_flow_failure_fraction(
        bed.client.sent_tap, bed.server.recv_tap, start=0.5 + warmup, end=0.5 + warmup + duration
    )


# ----------------------------------------------------------------------
# Fig. 4 — control-path profiling (Packet-In is the bottleneck)
# ----------------------------------------------------------------------
@dataclass
class Fig4Point:
    new_flow_rate: float
    packet_in_rate: float
    rule_insertion_rate: float
    successful_flow_rate: float


def fig4_point(
    new_flow_rate: float,
    profile: SwitchProfile = PICA8_PRONTO_3780,
    duration: float = 10.0,
    seed: int = 1,
) -> Fig4Point:
    """Packet-In rate, rule-insertion rate and successful flow rate
    observed while the client generates ``new_flow_rate`` flows/sec
    (attacker off — §3.3's methodology)."""
    bed = build_single_switch(profile=profile, seed=seed)
    client = NewFlowSource(bed.sim, bed.client, SERVER_IP, rate_fps=new_flow_rate)
    start, end = 1.0, 1.0 + duration
    client.start(at=start, stop_at=end)

    pktin_before = bed.switch.ofa.packet_ins_sent
    installs_before = bed.switch.ofa.installs_succeeded
    bed.sim.run(until=end + 2.0)
    packet_in_rate = (bed.switch.ofa.packet_ins_sent - pktin_before) / duration
    insertion_rate = (bed.switch.ofa.installs_succeeded - installs_before) / duration
    delivered = len(bed.server.recv_tap.received_in(start, end))
    return Fig4Point(new_flow_rate, packet_in_rate, insertion_rate, delivered / duration)


# ----------------------------------------------------------------------
# Fig. 9 — maximum flow-rule insertion rate
# ----------------------------------------------------------------------
def _schedule_installs(
    switch: OpenFlowSwitch, stream: str, rate: float, duration: float,
    start: float, src_net: int, out_port: int, rule_timeout: float,
) -> None:
    """Have the controller send ``switch`` FlowMods for distinct rules
    (sources walk ``<src_net>.x.y.z``) at ``rate``/s for ``duration``,
    jittered from the ``stream`` RNG substream."""
    sim = switch.sim
    rng = sim.rng.stream(stream)

    def send(index: int) -> None:
        mod = FlowMod(
            match=Match.for_flow(
                FlowKey(f"{src_net}.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}",
                        SERVER_IP, 6, 1024 + index % 60000, 80)
            ),
            priority=100,
            actions=[Output(out_port)],
            idle_timeout=rule_timeout,
        )
        switch.channel.send_to_switch(mod)

    gap = 1.0 / rate
    at = start
    for index in range(int(rate * duration)):
        # Small per-gap jitter, as with the traffic generators.
        at += gap * rng.uniform(0.98, 1.02)
        sim.schedule(at, send, index)


def fig9_point(
    attempted_rate: float,
    profile: SwitchProfile = PICA8_PRONTO_3780,
    duration: float = 10.0,
    rule_timeout: float = 10.0,
    seed: int = 1,
) -> float:
    """Successful insertion rate when the controller attempts
    ``attempted_rate`` rules/sec (no data traffic; §6.1's methodology:
    distinct rules with a 10 s timeout, success measured from the
    table)."""
    sim = Simulator(seed=seed)
    network = Network(sim)
    switch = network.add(OpenFlowSwitch(sim, "sw1", profile))

    installed_before = switch.ofa.installs_succeeded
    _schedule_installs(
        switch, "fig9", attempted_rate, duration,
        start=0.1, src_net=10, out_port=1, rule_timeout=rule_timeout,
    )
    sim.run(until=0.1 + duration + 2.0)
    return (switch.ofa.installs_succeeded - installed_before) / duration


# ----------------------------------------------------------------------
# Fig. 10 — data-path / control-path interaction
# ----------------------------------------------------------------------
def fig10_point(
    insertion_rate: float,
    data_rate_pps: float,
    profile: SwitchProfile = PICA8_PRONTO_3780,
    duration: float = 5.0,
    seed: int = 1,
) -> float:
    """Data-plane loss ratio while rules are inserted at
    ``insertion_rate`` and an established flow sends ``data_rate_pps``."""
    bed = build_single_switch(profile=profile, seed=seed)
    sim = bed.sim
    switch = bed.switch
    # Pre-install the data flow's rule statically (it is an established
    # flow; we measure data-plane loss, not setup).
    key = FlowKey("10.20.0.1", SERVER_IP, 17, 4000, 4000)
    out_port = bed.network.port_between("sw1", "server")
    switch.install_static(Match.for_flow(key), priority=100, actions=[Output(out_port)])

    spec = FlowSpec(
        key=key,
        start_time=0.5,
        size_packets=int(data_rate_pps * (duration + 3.0)),
        packet_size=512,
        rate_pps=data_rate_pps,
    )
    bed.client.start_flow(spec)

    # Insert from before the measurement window until past its end, so
    # the loss ratio reflects steady state rather than ramp/recovery.
    measure_start = 1.5
    _schedule_installs(
        switch, "fig10", insertion_rate, duration + 3.0,
        start=measure_start, src_net=11, out_port=out_port, rule_timeout=10.0,
    )

    sent_before = received_before = None

    def snapshot_start() -> None:
        nonlocal sent_before, received_before
        rec = bed.client.sent_tap.flow(key)
        sent_before = rec.packets_sent if rec else 0
        rec_in = bed.server.recv_tap.flow(key)
        received_before = rec_in.packets_received if rec_in else 0

    sim.schedule_at(measure_start + 0.5, snapshot_start)
    sim.run(until=measure_start + 0.5 + duration)
    rec = bed.client.sent_tap.flow(key)
    sent = (rec.packets_sent if rec else 0) - sent_before
    rec_in = bed.server.recv_tap.flow(key)
    received = (rec_in.packets_received if rec_in else 0) - received_before
    if sent <= 0:
        return 0.0
    return max(0.0, 1.0 - received / sent)


# ----------------------------------------------------------------------
# Fig. 11 (reconstructed) — ingress-port differentiation
# ----------------------------------------------------------------------
@dataclass
class Fig11Result:
    scheme: str
    clean_port_failure: float
    attacked_port_failure: float


def fig11_run(
    scheme: str,
    attack_rate: float = 2000.0,
    client_rate: float = 50.0,
    duration: float = 10.0,
    seed: int = 1,
) -> Fig11Result:
    """Two legitimate clients — one sharing the attacker's ingress port
    (same host), one on a clean port — under ``scheme`` (the figure
    compares "vanilla" and "scotch").  Scotch's per-port queues protect
    the clean port fully and still serve the attacked port via the
    overlay."""
    dep = build_scheme(scheme, seed=seed, racks=2, mesh_per_rack=1)
    server = dep.servers[0]
    # The attacked-port client runs on the attacker's host (same switch port).
    dirty = NewFlowSource(dep.sim, dep.attacker, server.ip, rate_fps=client_rate, src_net=21)
    clean_fail, start, end = run_flood(dep, client_rate, attack_rate, duration, dirty)
    # Attacked-port client flows live in the attacker host's sent tap
    # under src_net 21; filter by source prefix.
    dirty_fail = client_flow_failure_fraction(
        dep.attacker.sent_tap, server.recv_tap, start=start, end=end, src_prefix="10.21."
    )
    return Fig11Result(scheme, clean_fail, dirty_fail)


# ----------------------------------------------------------------------
# Fig. 12 (reconstructed) — large-flow migration
# ----------------------------------------------------------------------
@dataclass
class Fig12Result:
    migrated: bool
    migration_time: Optional[float]
    delivered_packets: int
    total_packets: int
    overlay_rules_cleaned: bool


def fig12_run(
    attack_rate: float = 1500.0,
    elephant_packets: int = 6000,
    elephant_pps: float = 500.0,
    seed: int = 3,
    with_firewall: bool = False,
) -> Fig12Result:
    """An elephant enters on the attacked port, rides the overlay, and is
    migrated to the physical path without loss."""
    dep = build_deployment(seed=seed, racks=2, mesh_per_rack=1, with_firewall=with_firewall)
    sim = dep.sim
    server_ip = dep.servers[0].ip
    attack = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=attack_rate)
    attack.start(at=0.5, stop_at=20.0)
    key = FlowKey("10.99.0.99", server_ip, 6, 5555, 80)
    start = 3.0
    dep.attacker.start_flow(
        FlowSpec(
            key=key,
            start_time=start,
            size_packets=elephant_packets,
            packet_size=1500,
            rate_pps=elephant_pps,
            batch=10,
        )
    )
    sim.run(until=start + elephant_packets / elephant_pps + 5.0)
    info = dep.scotch.flow_db.get(key)
    record = dep.servers[0].recv_tap.flow(key)
    cleaned = not info.overlay_sites
    return Fig12Result(
        migrated=info.route == "physical" and info.migrated_at is not None,
        migration_time=(info.migrated_at - start) if info.migrated_at else None,
        delivered_packets=record.packets_received if record else 0,
        total_packets=elephant_packets,
        overlay_rules_cleaned=cleaned,
    )


# ----------------------------------------------------------------------
# Fig. 13 (reconstructed) — capacity scaling with mesh size
# ----------------------------------------------------------------------
def fig13_point(
    n_vswitches: int,
    offered_rate: float = 12000.0,
    duration: float = 5.0,
    seed: int = 1,
) -> float:
    """Successful new-flow rate with ``n_vswitches`` in the mesh under an
    offered flood of ``offered_rate`` flows/sec.  The overlay's pooled
    Packet-In capacity (~4000/s per vSwitch) is the ceiling, so the
    curve grows near-linearly until it crosses the offered load.  The
    controller-side drain is raised well above the pooled capacity so
    the vSwitch agents — not controller scheduling — are what is
    measured (the paper: controller scaling is out of scope)."""
    config = ScotchConfig(
        vswitches_per_switch=n_vswitches,
        overlay_install_rate=100_000.0,
        drop_threshold=100_000,
    )
    dep = build_deployment(
        seed=seed, racks=max(2, n_vswitches), mesh_per_rack=1, config=config
    )
    sim = dep.sim
    server_ip = dep.servers[0].ip
    # Pre-activate: we measure steady-state overlay capacity, not ramp.
    flood = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=offered_rate)
    warm, start = 2.0, 4.0
    end = start + duration
    flood.start(at=warm, stop_at=end)
    sim.run(until=end + 3.0)
    delivered = len(dep.servers[0].recv_tap.received_in(start, end))
    return delivered / duration


# ----------------------------------------------------------------------
# Fig. 14 (reconstructed) — overlay relay delay
# ----------------------------------------------------------------------
def fig14_path(overlay: bool, flows: int = 100, racks: int = 3, seed: int = 1) -> List[float]:
    """Established-flow per-packet one-way delays on the physical path
    or (``overlay``) on the overlay path (three tunnels: switch->entry
    mesh, mesh->mesh, mesh->delivery).  Only DATA packets count — first
    packets include the reactive setup latency, which is not what this
    figure compares."""
    if overlay:
        # A flood congests the edge; the measured flows enter on the
        # attacked port so they are routed over the overlay, and elephant
        # migration is effectively disabled so they stay there.  (The
        # overlay deployment has always run on the next seed.)
        config = ScotchConfig(elephant_packet_threshold=10_000_000)
        dep = build_deployment(seed=seed + 1, racks=racks, mesh_per_rack=1, config=config)
        flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=3000)
        flood.start(at=0.2, stop_at=12.0)
    else:
        # No congestion: flows ride physical paths.
        dep = build_deployment(seed=seed, racks=racks, mesh_per_rack=1)
    delays: List[float] = []

    def on_rx(packet) -> None:
        # Established-flow samples only: skip first packets (SYN)
        # and packets the controller held/reinjected during rule
        # setup — their delay measures the control path, not the
        # forwarding path this figure compares.
        if (
            packet.tcp_flag == "DATA"
            and packet.src_ip.startswith("10.20.")
            and not packet.metadata.get("reinjected")
        ):
            delays.append(dep.sim.now - packet.created_at)

    for server in dep.servers:
        server.on_receive = on_rx
    source = NewFlowSource(
        dep.sim,
        dep.attacker if overlay else dep.client,
        dep.servers[-1].ip,
        rate_fps=flows / 5.0,
        sizes=FixedSize(size_packets=20, rate_pps=200.0),
    )
    source.start(at=3.0, stop_at=8.0)
    dep.sim.run(until=12.0)
    return delays


# ----------------------------------------------------------------------
# Fig. 15 (reconstructed) — trace-driven run
# ----------------------------------------------------------------------
@dataclass
class Fig15Result:
    scheme: str
    failure_fraction: float
    mean_fct: float
    p99_fct: float
    flows_measured: int


def fig15_run(
    scheme: str,
    base_rate: float = 150.0,
    surge_multiplier: float = 12.0,
    duration: float = 20.0,
    seed: int = 7,
) -> Fig15Result:
    """Replay a synthetic heavy-tailed trace with a mid-run surge under
    ``scheme`` (the figure compares "vanilla" and "scotch") and report
    legitimate-traffic failure fraction and flow completion times."""
    dep = build_scheme(scheme, seed=seed, racks=2, servers_per_rack=2, mesh_per_rack=1)
    sim = dep.sim
    rng = sim.rng.stream("trace")
    records = generate_trace(
        rng,
        src_hosts=["client"],
        dst_ips=[s.ip for s in dep.servers],
        base_rate_fps=base_rate,
        duration=duration,
        surge_start=duration * 0.25,
        surge_end=duration * 0.75,
        surge_multiplier=surge_multiplier,
        sizes=HeavyTailedSizes(elephant_fraction=0.02, elephant_mean_pkts=500.0),
    )
    replayer = TraceReplayer(sim, {"client": dep.client}, batch=10)
    replayer.schedule(records, offset=1.0)
    sim.run(until=duration + 8.0)

    # Every trace flow has a unique five-tuple and is sent before the
    # run ends, so the client tap holds exactly the trace's flows.
    sinks = {server.ip: server.recv_tap for server in dep.servers}
    fcts: List[float] = []
    for record in records:
        rx = sinks[record.key.dst_ip].flow(record.key)
        if rx is not None and rx.packets_received >= record.size_packets:
            sent = dep.client.sent_tap.flow(record.key)
            if sent is not None and sent.first_sent_at is not None:
                fcts.append(rx.last_received_at - sent.first_sent_at)
    return Fig15Result(
        scheme=scheme,
        failure_fraction=client_flow_failure_fraction(dep.client.sent_tap, sinks.values()),
        mean_fct=mean(fcts) if fcts else float("nan"),
        p99_fct=percentile(fcts, 99) if fcts else float("nan"),
        flows_measured=len(records),
    )


# ----------------------------------------------------------------------
# Ablation — the §3.3 TCAM bottleneck scenario
# ----------------------------------------------------------------------
#: Rule lifetime (10 s) x offered 100 f/s needs ~1000 resident rules,
#: far over this table capacity.
TINY_TCAM = PICA8_PRONTO_3780.variant(tcam_capacity=200)
TCAM_FLOW_PACKETS = 10


def tcam_run(with_scotch: bool, seed: int = 71, rate: float = 100.0, until: float = 25.0):
    """The §3.3 TCAM-bottleneck scenario: 10-packet flows at ``rate`` on
    switches with a 200-entry table.  Returns (deployment, failure
    fraction), where a flow fails unless (nearly) all packets arrive."""
    dep = build_scheme(
        "scotch" if with_scotch else "vanilla",
        seed=seed, racks=2, mesh_per_rack=1, switch_profile=TINY_TCAM,
    )
    client = NewFlowSource(
        dep.sim, dep.client, dep.servers[0].ip, rate_fps=rate,
        sizes=FixedSize(size_packets=TCAM_FLOW_PACKETS, rate_pps=200.0),
    )
    client.start(at=0.5, stop_at=until - 4.0)
    dep.sim.run(until=until)

    recv = dep.servers[0].recv_tap
    measured = failed = 0
    for key, record in dep.client.sent_tap.records.items():
        if record.first_sent_at is None or not 8.0 <= record.first_sent_at < until - 5.0:
            continue
        measured += 1
        arrived = recv.flow(key)
        if arrived is None or arrived.packets_received < TCAM_FLOW_PACKETS - 1:
            failed += 1
    return dep, (failed / measured if measured else 0.0)


# ----------------------------------------------------------------------
# Ablation — Scotch vs the baseline schemes
# ----------------------------------------------------------------------
@dataclass
class AblationResult:
    scheme: str
    client_failure: float
    total_success_rate: float
    #: Packet-In messages the controller received — the *visibility* the
    #: paper insists on preserving (proactive mode scores 0 here).
    flows_visible: int = 0


def ablation_run(
    scheme: str,
    attack_rate: float = 2000.0,
    client_rate: float = 100.0,
    duration: float = 10.0,
    seed: int = 1,
) -> AblationResult:
    """One flood scenario under any of ``SCHEMES``."""
    dep = build_scheme(scheme, seed=seed, racks=2, mesh_per_rack=1)
    failure, start, end = run_flood(dep, client_rate, attack_rate, duration)
    delivered = len(dep.servers[0].recv_tap.received_in(start, end))
    return AblationResult(
        scheme, failure, delivered / duration,
        flows_visible=dep.controller.packet_ins_received,
    )


# ----------------------------------------------------------------------
# Ablation — choosing R (§5.2/§6.1)
# ----------------------------------------------------------------------
@dataclass
class InstallRateResult:
    install_rate: float
    client_failure: float
    install_failures: int
    physical_flows: int


def install_rate_run(
    install_rate: float,
    attack_rate: float = 1000.0,
    client_rate: float = 100.0,
    duration: float = 10.0,
    seed: int = 1,
) -> InstallRateResult:
    """One point of the R sweep: Scotch with the controller's per-switch
    install rate forced to ``install_rate``.

    The paper: R should be "the maximum rate at which the OpenFlow
    controller can install rules at the physical switch without
    insertion failure" (= 200/s on Pica8).  Below that, physical
    capacity is wasted (more flows detour than necessary); above it, the
    OFA enters its Fig. 9 loss region and installs start failing.
    """
    config = ScotchConfig(install_rate=install_rate)
    dep = build_deployment(seed=seed, racks=2, mesh_per_rack=1, config=config)
    failure, _, _ = run_flood(dep, client_rate, attack_rate, duration)
    install_failures = sum(
        dep.network[name].ofa.installs_failed for name in dep.scotch.schedulers
    )
    return InstallRateResult(
        install_rate=install_rate,
        client_failure=failure,
        install_failures=install_failures,
        physical_flows=dep.scotch.flow_db.counts().get("physical", 0),
    )


# ----------------------------------------------------------------------
# Ablation — flow-hash (select group) vs per-packet random spraying
# ----------------------------------------------------------------------
def lb_run(spray: bool):
    """Duplicate Packet-Ins per multi-packet flow under the select
    group's flow-hash bucket choice, or (``spray``) per-packet random
    choice — DESIGN.md §5(1): spraying sends successive packets of one
    flow to different vSwitches, each of which raises its own Packet-In
    and needs its own rule."""
    dep = build_deployment(seed=9, racks=2, mesh_per_rack=1)
    original = GroupEntry.select_bucket
    try:
        if spray:
            rng = dep.sim.rng.stream("spray")

            def random_select(self, packet):
                if not self.buckets:
                    return None
                return rng.choice(self.buckets)

            GroupEntry.select_bucket = random_select
        sim = dep.sim
        server_ip = dep.servers[0].ip
        flood = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=1500.0)
        flood.start(at=0.5, stop_at=12.0)
        # Multi-packet legitimate flows on the attacked port ride the overlay.
        flows = NewFlowSource(
            sim, dep.attacker, server_ip, rate_fps=20.0, src_net=21,
            sizes=FixedSize(size_packets=30, rate_pps=100.0),
        )
        flows.start(at=3.0, stop_at=10.0)
        sim.run(until=13.0)
        return {
            "duplicate_packet_ins": dep.scotch.duplicate_packet_ins,
            "flows": flows.flows_started,
            "failure": client_flow_failure_fraction(
                dep.attacker.sent_tap, dep.servers[0].recv_tap, src_prefix="10.21."
            ),
        }
    finally:
        GroupEntry.select_bucket = original


# ----------------------------------------------------------------------
# The figure table — the one description of each reproduced table
# ----------------------------------------------------------------------
#: {sweep point: the runner's result}, in sweep order.
Results = Dict[Any, Any]


@dataclass(frozen=True)
class Figure:
    """One reproduced figure or ablation.  ``scotch-repro fig KEY``,
    ``report``, ``list`` and benchmarks/bench_figures.py are lookups and
    loops over these; the full sweep is what EXPERIMENTS.md documents
    and ``benchmarks/output/<name>.txt`` pins, ``--quick`` a reduced
    sweep of the same table."""

    key: str
    #: Stem of the committed table and the bench's parameter id.
    name: str
    description: str
    #: May name a runner keyword, e.g. ``{offered_rate:.0f}``.
    title: str
    columns: Sequence[str]
    #: ``runner(point, **keywords)`` runs one point of the sweep ...
    runner: Callable[..., Any]
    sweep: Sequence[Any]
    #: ... and ``row(point, result)`` is its row of the table.
    row: Callable[[Any, Any], Sequence[Any]]
    #: The runner's keywords for the full table, and under ``--quick``.
    full: Mapping[str, Any] = field(default_factory=dict)
    quick: Mapping[str, Any] = field(default_factory=dict)
    #: ``--quick`` sweep, where it is shorter than the full one.
    quick_sweep: Optional[Sequence[Any]] = None
    #: Lines under the table: sparklines, a plot, a CDF.
    trailer: Callable[[Results], List[str]] = lambda results: []

    def run(self, quick: bool = False) -> Results:
        sweep = self.quick_sweep if quick and self.quick_sweep else self.sweep
        keywords = self.quick if quick else self.full
        return {point: self.runner(point, **keywords) for point in sweep}

    def render(self, results: Results, quick: bool = False) -> str:
        title = self.title.format(**(self.quick if quick else self.full))
        rows = [self.row(point, result) for point, result in results.items()]
        table = format_table(self.columns, rows, title=title)
        return "\n".join([table] + self.trailer(results))

    def text(self, quick: bool = False) -> str:
        return self.render(self.run(quick), quick)


def _tcam_row(with_scotch: bool, outcome) -> Sequence[Any]:
    dep, failure = outcome
    overlay = dep.scotch.flow_db.counts().get("overlay", 0) if dep.scotch else 0
    scheme = "scotch" if with_scotch else "vanilla"
    return [scheme, failure, dep.edge.ofa.table_full_failures, overlay]


FIG10_DATA_RATES = (500, 1000, 2000)

FIGURES: Dict[str, Figure] = {figure.key: figure for figure in (
    Figure(
        key="3", name="fig03",
        description="client flow failure vs attack rate (3 switch models)",
        title="Fig. 3 — client flow failure fraction (client at 100 flows/s)",
        columns=["attack (flows/s)"] + [p.name for p in FIG3_PROFILES],
        runner=lambda rate, **kw: [fig3_point(p, rate, **kw) for p in FIG3_PROFILES],
        sweep=FIG3_ATTACK_RATES,
        row=lambda rate, failures: [rate] + failures,
        full={"duration": 10.0}, quick={"duration": 4.0},
        trailer=lambda results: [""] + [
            f"{profile.name:<28s} {sparkline(curve)}"
            for profile, curve in zip(FIG3_PROFILES, zip(*results.values()))],
    ),
    Figure(
        key="4", name="fig04",
        description="control-path profiling: Packet-In is the bottleneck",
        title="Fig. 4 — SDN switch control path profiling (Pica8)",
        columns=["new flows/s", "Packet-In/s", "rule inserts/s", "successful flows/s"],
        runner=fig4_point,
        sweep=(50, 100, 150, 200, 300, 500, 800), quick_sweep=(50, 100, 200, 500, 800),
        row=lambda rate, p: [
            rate, p.packet_in_rate, p.rule_insertion_rate, p.successful_flow_rate],
        full={"duration": 10.0}, quick={"duration": 4.0},
    ),
    Figure(
        key="9", name="fig09",
        description="maximum flow-rule insertion rate",
        title="Fig. 9 — flow rule insertion rate (Pica8)",
        columns=["attempted rules/s", "successful rules/s"],
        runner=fig9_point,
        sweep=(50, 100, 200, 400, 800, 1500, 2500, 4000),
        quick_sweep=(100, 200, 400, 800, 1500, 3000),
        row=lambda rate, successful: [rate, successful],
        # Durations chosen so the 8192-entry TCAM never fills within a
        # run (10 s at the ~1000/s plateau would; the paper measures
        # insertion throughput, not table size).
        full={"duration": 6.0}, quick={"duration": 3.0},
        trailer=lambda results: ["", ascii_plot(
            list(results.items()), x_label="attempted rules/s", y_label="successful rules/s")],
    ),
    Figure(
        key="10", name="fig10",
        description="data-path loss vs rule insertion rate",
        title="Fig. 10 — data-path packet loss vs. rule insertion rate (Pica8)",
        columns=["insert rules/s"] + [f"loss @ {dr} pps" for dr in FIG10_DATA_RATES],
        runner=lambda ir, **kw: [fig10_point(ir, dr, **kw) for dr in FIG10_DATA_RATES],
        sweep=(200, 600, 1000, 1250, 1400, 2000, 3000),
        quick_sweep=(600, 1000, 1250, 1400, 2000),
        row=lambda ir, losses: [ir] + losses,
        full={"duration": 5.0}, quick={"duration": 2.0},
    ),
    Figure(
        key="11", name="fig11",
        description="ingress-port differentiation (reconstructed)",
        title="Fig. 11 — client failure by ingress port (attack 2000 f/s)",
        columns=["scheme", "clean-port failure", "attacked-port failure"],
        runner=fig11_run, sweep=("vanilla", "scotch"),
        row=lambda scheme, r: [scheme, r.clean_port_failure, r.attacked_port_failure],
        full={"duration": 10.0}, quick={"duration": 6.0},
    ),
    Figure(
        key="12", name="fig12",
        description="large-flow migration (reconstructed)",
        title="Fig. 12 — elephant migration under a 1500 f/s flood",
        columns=["scenario", "migrated", "time to migrate (s)", "delivered", "rules cleaned"],
        runner=lambda firewall, **kw: fig12_run(with_firewall=firewall, **kw),
        sweep=(False, True), quick_sweep=(False,),
        row=lambda firewall, r: [
            "through firewall" if firewall else "plain", r.migrated, r.migration_time,
            f"{r.delivered_packets}/{r.total_packets}", r.overlay_rules_cleaned],
        full={"elephant_packets": 6000}, quick={"elephant_packets": 2000},
    ),
    Figure(
        key="13", name="fig13",
        description="overlay capacity vs mesh size (reconstructed)",
        title="Fig. 13 — overlay control-plane capacity (offered {offered_rate:.0f} f/s)",
        columns=["vSwitches", "successful new flows/s", "per-vSwitch"],
        runner=fig13_point, sweep=(1, 2, 3, 4), quick_sweep=(1, 2),
        row=lambda n, rate: [n, rate, rate / n],
        full={"offered_rate": 20000.0, "duration": 5.0},
        quick={"offered_rate": 9000.0, "duration": 3.0},
    ),
    Figure(
        key="14", name="fig14",
        description="overlay relay delay (reconstructed)",
        title="Fig. 14 — established-flow one-way delay",
        columns=["path", "mean delay (ms)", "p99 delay (ms)", "samples"],
        runner=fig14_path, sweep=(False, True),
        row=lambda overlay, delays: [
            "overlay (3 tunnels)" if overlay else "direct (physical)",
            mean(delays) * 1e3, percentile(delays, 99) * 1e3, len(delays)],
        full={"flows": 100}, quick={"flows": 60},
        trailer=lambda results: [
            f"mean stretch: {mean(results[True]) / mean(results[False]):.2f}x",
            "",
            "overlay delay CDF (ms, fraction):",
        ] + [f"  {value * 1e3:8.3f}  {fraction:.2f}"
             for value, fraction in cdf_points(results[True], points=10)],
    ),
    Figure(
        key="15", name="fig15",
        description="trace-driven application performance (reconstructed)",
        title="Fig. 15 — trace-driven run (12x surge mid-trace)",
        columns=["scheme", "flows", "failure fraction", "mean FCT (s)", "p99 FCT (s)"],
        runner=fig15_run, sweep=("vanilla", "scotch"),
        row=lambda scheme, r: [
            scheme, r.flows_measured, r.failure_fraction, r.mean_fct, r.p99_fct],
        full={"duration": 20.0}, quick={"duration": 10.0},
    ),
    Figure(
        key="ablation", name="ablation",
        description="Scotch vs vanilla / proactive / drop / dedicated-port",
        title="Ablation — flood 2000 f/s, client 100 f/s",
        columns=["scheme", "client failure", "delivered flows/s", "controller visibility"],
        runner=ablation_run, sweep=SCHEMES,
        row=lambda scheme, r: [
            scheme, r.client_failure, r.total_success_rate, r.flows_visible],
        full={"duration": 10.0}, quick={"duration": 5.0},
    ),
    Figure(
        key="tcam", name="ablation_tcam",
        description="the §3.3 TCAM-bottleneck scenario",
        title="Ablation — 200-entry TCAM, 100 f/s of 10-packet flows",
        columns=["scheme", "flow failure", "edge TABLE_FULL errors", "flows via overlay"],
        runner=tcam_run, sweep=(False, True),
        row=_tcam_row,
        full={"until": 25.0}, quick={"until": 15.0},
    ),
    Figure(
        key="install_rate", name="ablation_install_rate",
        description="choosing the controller's install rate R (§5.2, §6.1)",
        title="Ablation — controller install rate R (Pica8 lossless = 200/s)",
        columns=["R (rules/s)", "client failure", "failed installs", "flows on physical"],
        runner=install_rate_run,
        sweep=(50, 100, 200, 400, 800), quick_sweep=(50, 200, 800),
        row=lambda rate, r: [rate, r.client_failure, r.install_failures, r.physical_flows],
        full={"duration": 10.0}, quick={"duration": 5.0},
        trailer=lambda results: [
            "",
            "flows on physical : " + sparkline([r.physical_flows for r in results.values()]),
            "failed installs   : " + sparkline([r.install_failures for r in results.values()]),
        ],
    ),
    Figure(
        key="lb", name="ablation_lb",
        description="select-group flow hash vs per-packet random spraying",
        title="Ablation — select-group bucket policy (30-pkt flows on attacked port)",
        columns=["bucket selection", "duplicate Packet-Ins", "client failure"],
        # lb_run's schedule is fixed, so --quick runs the same table.
        runner=lb_run, sweep=(False, True),
        row=lambda spray, r: [
            "random-spray" if spray else "flow-hash", r["duplicate_packet_ins"], r["failure"]],
    ),
)}
