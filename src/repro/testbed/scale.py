"""Scale scenario: a 500–1000-vSwitch overlay under flash-crowd load.

``build_deployment`` couples the mesh size to the rack count (every rack
carries a mesh vSwitch), which makes the O(mesh²) overlay tunnel fabric
explode long before the vSwitch count gets interesting.  This module
builds the shape the paper actually argues for at scale (§4.1, §6): a
*moderate* fully-meshed overlay core (tens of mesh vSwitches — the
elastic control-plane capacity) fronting *hundreds* of host vSwitches
(one per tenant rack slice — where the east-west edge really lives).

Topology::

    client -- edge -- spine -- tor_k -- hv_i -- server_i   (i: 0..hosts)
                         |       |
                     (overlay)  mv_j                        (j: 0..mesh)

The workload is a flash crowd: a steady base of new flows toward a set
of popular services, then a configurable window in which the aggregate
new-flow rate multiplies — the §1 motivating scenario where the
physical switch's control path saturates and Scotch must spread
Packet-Ins over the overlay.

The ``scale`` scenario entry at the bottom is the engine's macro
benchmark: its report carries wall-clock, total events dispatched
(``Simulator.events_fired``) and events/sec separately for the build
and run phases.  ``benchmarks/bench_scale_engine.py`` drives it and
emits ``BENCH_scale.json``; the CLI exposes it as ``repro scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.controller.controller import OpenFlowController
from repro.core.app import ScotchApp
from repro.core.config import ScotchConfig
from repro.core.overlay import ScotchOverlay
from repro.core.policy import PolicyRegistry
from repro.faults.scenario import RunReport, Scenario, register
from repro.net.host import Host
from repro.net.tap import client_flow_failure_fraction
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.profiles import OPEN_VSWITCH, PICA8_PRONTO_3780
from repro.switch.switch import PhysicalSwitch, VSwitch
from repro.telemetry.scorecard import monitoring_counters
from repro.testbed.deployment import FABRIC_BPS, HOST_BPS
from repro.traffic import NewFlowSource


@dataclass
class ScaleDeployment:
    """Handles to the scale topology."""

    sim: Simulator
    network: Network
    controller: OpenFlowController
    overlay: ScotchOverlay
    scotch: ScotchApp
    edge: PhysicalSwitch
    spine: PhysicalSwitch
    tors: List[PhysicalSwitch]
    host_vswitches: List[VSwitch]
    mesh_vswitches: List[VSwitch]
    servers: List[Host]
    targets: List[Host]
    client: Host

    @property
    def vswitch_count(self) -> int:
        return len(self.host_vswitches) + len(self.mesh_vswitches)


def build_scale_overlay(
    seed: int = 0,
    host_vswitches: int = 480,
    mesh: int = 24,
    tors: int = 8,
    targets: int = 16,
    config: Optional[ScotchConfig] = None,
) -> ScaleDeployment:
    """Build the scale topology (``host_vswitches + mesh`` vSwitches).

    ``targets`` of the servers are the flash-crowd services: they get
    overlay delivery mappings (and hence delivery tunnels from every
    mesh vSwitch); the remaining host vSwitches model idle tenants.
    """
    if host_vswitches < 1 or mesh < 2 or tors < 1:
        raise ValueError("need host_vswitches >= 1, mesh >= 2, tors >= 1")
    targets = min(targets, host_vswitches)
    sim = Simulator(seed=seed)
    network = Network(sim)
    config = config or ScotchConfig()

    edge = network.add(PhysicalSwitch(sim, "edge", PICA8_PRONTO_3780))
    spine = network.add(PhysicalSwitch(sim, "spine", PICA8_PRONTO_3780))
    network.link("edge", "spine", FABRIC_BPS)
    client = network.add(Host(sim, "client", "10.20.0.1"))
    network.link("client", "edge", HOST_BPS)

    tor_switches: List[PhysicalSwitch] = []
    for k in range(tors):
        tor = network.add(PhysicalSwitch(sim, f"tor{k}", PICA8_PRONTO_3780))
        network.link(tor.name, "spine", FABRIC_BPS)
        tor_switches.append(tor)

    overlay = ScotchOverlay(network, config)
    mesh_switches: List[VSwitch] = []
    for j in range(mesh):
        mv = network.add(VSwitch(sim, f"mv{j}", OPEN_VSWITCH))
        network.link(mv.name, tor_switches[j % tors].name, HOST_BPS)
        mesh_switches.append(mv)
        overlay.add_mesh_vswitch(mv.name)

    hv_switches: List[VSwitch] = []
    servers: List[Host] = []
    for i in range(host_vswitches):
        hv = network.add(VSwitch(sim, f"hv{i}", OPEN_VSWITCH))
        network.link(hv.name, tor_switches[i % tors].name, HOST_BPS)
        hv_switches.append(hv)
        server = network.add(
            Host(sim, f"server{i}", f"10.{1 + i // 200}.{i % 200}.10")
        )
        network.link(server.name, hv.name, HOST_BPS)
        servers.append(server)

    # Delivery mappings: the flash-crowd services plus the client (so
    # reverse traffic over the overlay cannot strand).
    for i in range(targets):
        overlay.set_host_delivery(
            servers[i].name, hv_switches[i].name, mesh_switches[i % mesh].name
        )
    overlay.set_host_delivery("client", None, mesh_switches[0].name)

    for switch in [edge, spine] + tor_switches:
        overlay.register_switch(switch.name)

    controller = OpenFlowController(sim, network)
    for node in network.nodes.values():
        if isinstance(node, (PhysicalSwitch, VSwitch)):
            controller.register_switch(node)

    policy = PolicyRegistry(network, overlay)
    scotch = ScotchApp(overlay, config=config, policy=policy)
    controller.add_app(scotch)

    return ScaleDeployment(
        sim=sim,
        network=network,
        controller=controller,
        overlay=overlay,
        scotch=scotch,
        edge=edge,
        spine=spine,
        tors=tor_switches,
        host_vswitches=hv_switches,
        mesh_vswitches=mesh_switches,
        servers=servers,
        targets=servers[:targets],
        client=client,
    )


# ----------------------------------------------------------------------
# The scale scenario entry (repro.faults.scenario.run does the running)
# ----------------------------------------------------------------------
@register
class Scale(Scenario):
    """The flash crowd over the scale overlay — the engine's macro
    benchmark: the report carries wall-clock and
    ``Simulator.events_fired`` separately for the build and run phases.

    ``base_rate_fps`` is the per-target new-flow rate before/after the
    crowd window; during ``[crowd_at, crowd_until)`` every target's rate
    multiplies by ``crowd_multiplier``."""

    name = "scale"
    duration = 5.0
    knobs = {"host_vswitches": 480, "mesh": 24, "tors": 8, "targets": 16,
             "base_rate_fps": 20.0, "crowd_multiplier": 10.0,
             "crowd_at": 1.5, "crowd_until": 3.5}
    table_title = "Scale report"

    def build(self) -> ScaleDeployment:
        knobs = self.knobs
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if knobs["crowd_multiplier"] < 1:
            raise ValueError("crowd_multiplier must be >= 1")
        return build_scale_overlay(
            seed=self.seed, host_vswitches=knobs["host_vswitches"],
            mesh=knobs["mesh"], tors=knobs["tors"], targets=knobs["targets"],
            config=self.config)

    def traffic(self, dep: ScaleDeployment) -> None:
        knobs, sim, duration = self.knobs, dep.sim, self.duration
        base_rate = knobs["base_rate_fps"]
        self.sources = sources = [
            NewFlowSource(sim, dep.client, target.ip, rate_fps=base_rate,
                          rng_name=f"scale:{target.name}")
            for target in dep.targets
        ]
        for source in sources:
            source.start(at=0.25, stop_at=duration - 0.25)

        def set_rate(rate_fps: float) -> None:
            for source in sources:
                source.rate_fps = rate_fps

        if knobs["crowd_at"] < duration:
            sim.schedule_at(knobs["crowd_at"], set_rate,
                            base_rate * knobs["crowd_multiplier"])
            if knobs["crowd_until"] < duration:
                sim.schedule_at(knobs["crowd_until"], set_rate, base_rate)

    def measures(self, dep: ScaleDeployment) -> Dict[str, object]:
        base_rate = self.knobs["base_rate_fps"]
        return {
            "vswitches": dep.vswitch_count,
            "mesh": len(dep.mesh_vswitches),
            "host_vswitches": len(dep.host_vswitches),
            "tunnels": len(dep.overlay.fabric.tunnels),
            "targets": len(dep.targets),
            "base_rate_fps": base_rate,
            "crowd_rate_fps": base_rate * self.knobs["crowd_multiplier"],
            "flows_started": sum(s.flows_started for s in self.sources),
            # A flow counts as failed when no target server ever saw it.
            "client_failure": client_flow_failure_fraction(
                dep.client.sent_tap, [t.recv_tap for t in dep.targets],
                start=0.5, end=self.duration - 0.5),
            "edge_punts": dep.edge.datapath.punted,
            # Monitoring-cost extras (metrics-enabled runs only): the
            # flow-stats counters let `scotch-repro scale --stats-mode
            # sample` show the monitoring-byte saving at scale next to
            # the engine numbers.
            "extras": (monitoring_counters(self.metrics)
                       if self.metrics.enabled else {}),
        }

    @staticmethod
    def rows(report: RunReport) -> List[Sequence[object]]:
        rows = [
            ["vSwitches (mesh + host)",
             f"{report.vswitches} ({report.mesh} + {report.host_vswitches})"],
            ["overlay tunnels", report.tunnels],
            ["flash-crowd targets", report.targets],
            ["flows started", report.flows_started],
            ["client failure", f"{report.client_failure:.4f}"],
            ["edge punts", report.edge_punts],
            ["build wall (s) / events",
             f"{report.build_wall:.2f}/{report.build_events}"],
            ["run wall (s) / events",
             f"{report.run_wall:.2f}/{report.run_events}"],
            ["events/sec", f"{report.events_per_sec:,.0f}"],
        ]
        extras = report.extras
        if extras:
            rows.append(["monitoring polls / sample reports / bytes",
                         f"{extras['polls_sent']}/{extras['sample_reports']}/"
                         f"{extras['monitoring_bytes']:,}"])
        return rows
