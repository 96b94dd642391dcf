"""Scale scenario: a 500–1000-vSwitch overlay under flash-crowd load.

The topology is :func:`repro.testbed.deployment.build_scale_overlay`: a
moderate fully-meshed overlay core fronting hundreds of host vSwitches.
The workload is a flash crowd: a steady base of new flows toward a set
of popular services, then a configurable window in which the aggregate
new-flow rate multiplies — the §1 motivating scenario where the
physical switch's control path saturates and Scotch must spread
Packet-Ins over the overlay.

The ``scale`` scenario entry is the engine's macro benchmark: its report
carries wall-clock, total events dispatched
(``Simulator.events_fired``) and events/sec separately for the build
and run phases.  The CLI exposes it as ``scotch-repro scale``;
``benchmarks/e2e`` times the same flash crowd as ``flashcrowd_scale``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.faults.scenario import RunReport, Scenario, register
from repro.net.tap import client_flow_failure_fraction
from repro.telemetry.scorecard import monitoring_counters
from repro.testbed.deployment import Deployment, build_scale_overlay, check_scale_sizes
from repro.traffic import NewFlowSource


@register
class Scale(Scenario):
    """The flash crowd over the scale overlay, run by
    ``repro.faults.scenario.run`` (the module docstring lists the report).

    ``base_rate_fps`` is the per-target new-flow rate before/after the
    crowd window; during ``[crowd_at, crowd_until)`` every target's rate
    multiplies by ``crowd_multiplier``."""

    name = "scale"
    duration = 5.0
    knobs = {"host_vswitches": 480, "mesh": 24, "tors": 8, "targets": 16,
             "base_rate_fps": 20.0, "crowd_multiplier": 10.0,
             "crowd_at": 1.5, "crowd_until": 3.5}
    table_title = "Scale report"

    @staticmethod
    def check(duration: float, knobs: Dict[str, Any]) -> None:
        """Raise ValueError unless ``knobs`` over ``duration`` make a run
        (``build`` and the ``scale`` CLI both check this one rule)."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if knobs["crowd_multiplier"] < 1:
            raise ValueError("crowd_multiplier must be >= 1")
        check_scale_sizes(knobs["host_vswitches"], knobs["mesh"], knobs["tors"])

    def build(self) -> Deployment:
        knobs = self.knobs
        self.check(self.duration, knobs)
        return build_scale_overlay(
            seed=self.seed, host_vswitches=knobs["host_vswitches"],
            mesh=knobs["mesh"], tors=knobs["tors"], targets=knobs["targets"],
            config=self.config)

    def traffic(self, dep: Deployment) -> None:
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

    def measures(self, dep: Deployment) -> Dict[str, object]:
        base_rate = self.knobs["base_rate_fps"]
        return {
            "vswitches": len(dep.mesh_vswitches) + len(dep.host_vswitches),
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
