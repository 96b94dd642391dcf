#!/usr/bin/env python3
"""Attack forensics: the security application on top of Scotch.

The paper's pitch (§1, §5.2): because Scotch keeps every new flow
visible to the controller even while the switch OFA is saturated, "the
collected flow information can be fed into the security tools to help
pinpoint the root cause" — e.g. as another controller application.

This demo runs a spoofed-source flood plus a legitimate flash crowd on
different ports, and shows the :class:`repro.core.SecurityApp`:

* pinpointing the attacked switch + ingress port (recovered through the
  overlay's tunnel/port labels),
* telling the spoofed flood (one fresh source per packet) apart from the
  flash crowd (many flows, few sources),
* and, in ``block`` mode, shedding the flood in the data plane while the
  clean ports keep working.

Run:  python examples/attack_forensics.py
"""

from repro.core.security import BLOCK, SecurityApp
from repro.net.tap import client_flow_failure_fraction
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


def main() -> None:
    deployment = build_deployment(seed=17, racks=2, mesh_per_rack=1)
    sim = deployment.sim
    server_ip = deployment.servers[0].ip

    reports = []
    security = SecurityApp(
        deployment.overlay,
        mitigation=BLOCK,
        on_attack=lambda report: reports.append(report),
    )
    deployment.controller.add_app(security)

    # Port A (attacker host): a spoofed-source SYN flood.
    flood = SpoofedFlood(sim, deployment.attacker, server_ip, rate_fps=2500.0)
    flood.start(at=2.0, stop_at=15.0)
    # Port B (client host): a legitimate flash crowd — high rate, but a
    # small set of repeat sources.
    crowd = NewFlowSource(sim, deployment.client, server_ip, rate_fps=700.0,
                          src_net=30, source_pool=25)
    crowd.start(at=2.0, stop_at=15.0)

    sim.run(until=20.0)

    print("Security reports:")
    for report in reports[:6]:
        kind = "SPOOFED FLOOD" if report.spoofing_suspected else "flash crowd"
        action = "-> blocked in data plane" if report.mitigated else "-> reported"
        print(f"  t={report.time:5.1f}s  {report.switch} port {report.port}: "
              f"{report.new_flow_rate:6.0f} flows/s, "
              f"{report.distinct_sources} sources, victim {report.top_destination}  "
              f"[{kind}] {action}")

    attacked_port = deployment.network.port_between("edge", "attacker")
    crowd_port = deployment.network.port_between("edge", "client")
    flagged = {(r.port, r.spoofing_suspected) for r in reports}
    print()
    print(f"attacked port {attacked_port} flagged as spoofed : "
          f"{(attacked_port, True) in flagged}")
    print(f"crowd port {crowd_port} flagged as spoofed    : "
          f"{(crowd_port, True) in flagged}")
    print(f"mitigations installed : {security.mitigations_installed}")
    failure = client_flow_failure_fraction(
        deployment.client.sent_tap, deployment.servers[0].recv_tap, start=6.0, end=14.0)
    print(f"flash-crowd failure   : {failure:.1%} (Scotch keeps carrying it)")


if __name__ == "__main__":
    main()
