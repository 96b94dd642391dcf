#!/usr/bin/env python3
"""Wide-area Scotch: the overlay spanning multiple sites.

The paper (§4.1) allows the vSwitch pool to be "distributed at different
locations for a wide-area SDN network".  This demo builds a 4-site ring
with 10 ms WAN legs, floods the entry PoP, and shows the overlay
absorbing the flood while delivering legitimate flows to a *remote*
site's server — with the extra relay delay the WAN implies.

Run:  python examples/wan_overlay.py
"""

from repro.net.tap import client_flow_failure_fraction
from repro.obs.metrics import mean
from repro.testbed.deployment import build_wan_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


def main() -> None:
    deployment = build_wan_deployment(sites=4, seed=5)
    sim = deployment.sim
    remote_server = deployment.servers[2]  # two WAN hops away

    delays = []
    remote_server.on_receive = lambda p: delays.append(sim.now - p.created_at)

    client = NewFlowSource(sim, deployment.client, remote_server.ip, rate_fps=60.0)
    flood = SpoofedFlood(sim, deployment.attacker, remote_server.ip, rate_fps=2000.0)
    client.start(at=0.5, stop_at=18.0)
    flood.start(at=2.0, stop_at=18.0)
    sim.run(until=20.0)

    app = deployment.scotch
    failure = client_flow_failure_fraction(
        deployment.client.sent_tap, remote_server.recv_tap, start=6.0, end=16.0)
    print("4-site WAN ring, 10 ms legs; flood 2000 f/s at site 0; "
          f"client flows to site 2's server\n")
    print(f"overlay activations       : {app.activations} "
          f"(active at: {sorted(app.overlay.active)})")
    print(f"client failure (attack)   : {failure:.1%}")
    print(f"flows carried by overlay  : {app.flow_db.counts().get('overlay', 0)}")
    print(f"mean delivery delay       : {mean(delays) * 1e3:.1f} ms "
          f"(includes WAN legs and overlay relay)")
    print(f"pop1 (remote) control RTT : {deployment.switches[1].channel.latency * 2 * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
