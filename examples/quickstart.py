#!/usr/bin/env python3
"""Quickstart: build a small SDN network, flood it, watch Scotch save it.

This walks the library's public API end to end:

1. build the Fig. 5-style deployment (physical fabric + vSwitch overlay),
2. run a legitimate client plus a spoofed-source flood,
3. watch the congestion monitor activate the overlay,
4. compare the client's failure fraction with and without Scotch.

Run:  python examples/quickstart.py
"""

from repro.core.baselines import ReactiveForwardingApp
from repro.net.tap import client_flow_failure_fraction
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood

ATTACK_RATE = 2000.0  # spoofed flows/second
CLIENT_RATE = 100.0   # legitimate new flows/second


def run(with_scotch: bool) -> float:
    """One run; returns the client's flow failure fraction under attack."""
    deployment = build_deployment(seed=1, add_scotch_app=with_scotch)
    if not with_scotch:
        # The baseline: plain reactive forwarding, as in the paper's §3.
        deployment.controller.add_app(ReactiveForwardingApp())

    sim = deployment.sim
    server_ip = deployment.servers[0].ip
    client = NewFlowSource(sim, deployment.client, server_ip, rate_fps=CLIENT_RATE)
    attack = SpoofedFlood(sim, deployment.attacker, server_ip, rate_fps=ATTACK_RATE)
    client.start(at=0.5, stop_at=12.0)
    attack.start(at=2.0, stop_at=12.0)
    sim.run(until=14.0)

    if with_scotch:
        app = deployment.scotch
        print(f"  overlay activations : {app.activations}")
        print(f"  flows via overlay   : {app.flow_db.counts().get('overlay', 0)}")
        print(f"  flows via physical  : {app.flow_db.counts().get('physical', 0)}")
    return client_flow_failure_fraction(
        deployment.client.sent_tap,
        deployment.servers[0].recv_tap,
        start=4.0,
        end=11.0,
    )


def main() -> None:
    print(f"Flooding one switch at {ATTACK_RATE:.0f} spoofed flows/s "
          f"(client at {CLIENT_RATE:.0f} flows/s)\n")
    print("Without Scotch (vanilla reactive SDN):")
    vanilla = run(with_scotch=False)
    print(f"  client flow failure : {vanilla:.1%}\n")
    print("With Scotch:")
    scotch = run(with_scotch=True)
    print(f"  client flow failure : {scotch:.1%}\n")
    print(f"Scotch reduced the client failure fraction from "
          f"{vanilla:.1%} to {scotch:.1%}.")


if __name__ == "__main__":
    main()
