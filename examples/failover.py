#!/usr/bin/env python3
"""vSwitch failover: heartbeats, backup substitution, and recovery.

Demonstrates §5.6.  While the overlay is active under a flood, one mesh
vSwitch crashes.  The controller's heartbeat monitor misses its echo
replies, declares it dead, and swaps the backup vSwitch into the edge
switch's select-group bucket — flows that hashed to the dead vSwitch
re-appear at the backup as new flows and keep being served.  When the
vSwitch comes back, its echoes resume and it rejoins the overlay.

Run:  python examples/failover.py
"""

from repro.net.tap import client_flow_failure_fraction
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood

FAIL_AT, RECOVER_AT = 6.0, 16.0


def main() -> None:
    deployment = build_deployment(seed=14, racks=2, mesh_per_rack=1, backups=1)
    sim = deployment.sim
    app = deployment.scotch
    server_ip = deployment.servers[0].ip

    flood = SpoofedFlood(sim, deployment.attacker, server_ip, rate_fps=2000.0)
    client = NewFlowSource(sim, deployment.client, server_ip, rate_fps=100.0)
    flood.start(at=0.5, stop_at=24.0)
    client.start(at=0.5, stop_at=24.0)

    victim = deployment.mesh_vswitches[0]
    sim.schedule(FAIL_AT, victim.fail)
    sim.schedule(RECOVER_AT, victim.recover)

    def show_buckets(label):
        group = deployment.edge.datapath.groups.get(1)
        buckets = [b.label for b in group.buckets] if group else []
        print(f"t={sim.now:5.1f}s  {label:<22s} edge group buckets: {buckets}")

    sim.schedule(5.0, show_buckets, "before failure")
    sim.schedule(FAIL_AT + 5.0, show_buckets, "after failover")
    sim.schedule(RECOVER_AT + 4.0, show_buckets, "after recovery")
    sim.run(until=25.0)

    print()
    print(f"victim vSwitch       : {victim.name} "
          f"(failed t={FAIL_AT}s, recovered t={RECOVER_AT}s)")
    print(f"failures detected    : {app.heartbeat.failures_detected}")
    print(f"recoveries detected  : {app.heartbeat.recoveries_detected}")
    print(f"currently dead       : {sorted(app.overlay.dead) or 'none'}")
    failure = client_flow_failure_fraction(
        deployment.client.sent_tap, deployment.servers[0].recv_tap,
        start=FAIL_AT + 4.0, end=24.0,
    )
    print(f"client failure after failover window: {failure:.1%}")


if __name__ == "__main__":
    main()
