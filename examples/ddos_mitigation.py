#!/usr/bin/env python3
"""DDoS scenario: full Scotch lifecycle with ingress-port isolation.

Demonstrates the paper's §5 machinery in one run:

* a spoofed-source SYN flood saturates the edge switch's control path;
* the congestion monitor activates the overlay (default rules + select
  group over the switch->vSwitch tunnels);
* per-ingress-port queues keep the clean client port at full service
  while the attacked port's legitimate traffic rides the overlay;
* when the flood stops, the overlay withdraws (pin rules, default-rule
  removal) and the switch returns to normal reactive operation.

Run:  python examples/ddos_mitigation.py
"""

from repro.net.tap import client_flow_failure_fraction
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood

ATTACK_START, ATTACK_STOP = 2.0, 14.0
RUN_UNTIL = 30.0


def main() -> None:
    deployment = build_deployment(seed=11, racks=2, mesh_per_rack=1)
    sim = deployment.sim
    app = deployment.scotch
    server_ip = deployment.servers[0].ip

    # A clean-port client, an attacked-port client (same host as the
    # attacker), and the flood itself.
    clean_client = NewFlowSource(sim, deployment.client, server_ip, rate_fps=50.0,
                                 src_net=20)
    dirty_client = NewFlowSource(sim, deployment.attacker, server_ip, rate_fps=50.0,
                                 src_net=21)
    flood = SpoofedFlood(sim, deployment.attacker, server_ip, rate_fps=2500.0)

    clean_client.start(at=0.5, stop_at=RUN_UNTIL - 2.0)
    dirty_client.start(at=0.5, stop_at=RUN_UNTIL - 2.0)
    flood.start(at=ATTACK_START, stop_at=ATTACK_STOP)

    # Narrate the lifecycle as it happens.
    events = []
    original_congested = app._on_congested
    original_cleared = app._on_cleared

    def on_congested(dpid):
        events.append(f"t={sim.now:6.2f}s  congestion detected at {dpid}; overlay ON")
        original_congested(dpid)

    def on_cleared(dpid):
        events.append(f"t={sim.now:6.2f}s  control path clear at {dpid}; withdrawing")
        original_cleared(dpid)

    app.monitor.on_congested = on_congested
    app.monitor.on_cleared = on_cleared

    sim.run(until=RUN_UNTIL)

    print(f"Flood: {flood.packets_sent} spoofed flows "
          f"between t={ATTACK_START}s and t={ATTACK_STOP}s\n")
    for line in events:
        print(line)
    print()

    def report(tap, label, src_prefix):
        sent = {
            k for k, r in tap.records.items()
            if r.packets_sent > 0 and k.src_ip.startswith(src_prefix)
            and ATTACK_START + 2 <= (r.first_sent_at or 0) < ATTACK_STOP
        }
        arrived = deployment.servers[0].recv_tap.received_flow_keys()
        failed = sum(1 for k in sent if k not in arrived)
        fraction = failed / len(sent) if sent else 0.0
        print(f"  {label:<28s} {fraction:7.1%}  ({len(sent)} flows)")

    print("Client flow failure during the attack:")
    report(deployment.client.sent_tap, "clean port", "10.20.")
    report(deployment.attacker.sent_tap, "attacked port (legit flows)", "10.21.")

    post = client_flow_failure_fraction(
        deployment.client.sent_tap, deployment.servers[0].recv_tap,
        start=ATTACK_STOP + 8.0, end=RUN_UNTIL - 2.0,
    )
    print(f"\nAfter withdrawal: clean-port failure {post:.1%}; "
          f"overlay active at: {sorted(app.overlay.active) or 'none'}")
    # Cumulative routing decisions (the Flow Info Database itself is
    # point-in-time: retired flows leave it as their rules expire).
    overlaid = sum(s.flows_overlaid for s in app.schedulers.values())
    admitted = sum(s.flows_admitted for s in app.schedulers.values())
    dropped = sum(s.flows_dropped for s in app.schedulers.values())
    print(f"Flows carried — overlay: {overlaid}, physical: {admitted}, "
          f"dropped: {dropped}; retired from controller state: {app.flows_retired}")


if __name__ == "__main__":
    main()
