#!/usr/bin/env python3
"""Build your own protected fabric: Scotch on a builder topology.

Composes the pieces (see docs/usage.md): a leaf-spine fabric from
`repro.net.builders`, a vSwitch pool and the overlay, put under one
controller with ScotchApp by `attach_scotch`, plus SecurityApp — then a
flood at one leaf and legitimate cross-rack traffic.

Run:  python examples/custom_topology.py
"""

from repro.core import ScotchOverlay, SecurityApp
from repro.net.builders import leaf_spine
from repro.net.tap import client_flow_failure_fraction
from repro.obs.report import sparkline
from repro.sim.process import PeriodicTimer
from repro.switch.switch import VSwitch
from repro.testbed.deployment import attach_scotch
from repro.traffic import NewFlowSource, SpoofedFlood


def main() -> None:
    # 1. A 4-leaf / 2-spine fabric with one host per leaf.
    topo = leaf_spine(leaves=4, spines=2, hosts_per_leaf=1, seed=21)
    sim, net = topo.sim, topo.network

    # 2. Three mesh vSwitches on different leaves.
    overlay = ScotchOverlay(net)
    for index in range(3):
        net.add(VSwitch(sim, f"mv{index}"))
        net.link(f"mv{index}", f"leaf{index}", 1e9)
        overlay.add_mesh_vswitch(f"mv{index}")
    for host in topo.hosts:
        overlay.set_host_delivery(host.name, None, "mv0")

    # 3. One controller with Scotch on every switch, plus the security
    #    application.
    dep = attach_scotch(net, overlay, topo.switches)
    scotch = dep.scotch
    security = dep.controller.add_app(SecurityApp(overlay))

    # 4. Traffic: a flood from host 0 toward host 3, a legitimate client
    #    on host 1 toward the same victim.
    victim = topo.hosts[3]
    attacker, client = topo.hosts[0], topo.hosts[1]
    SpoofedFlood(sim, attacker, victim.ip, rate_fps=2500.0).start(at=2.0, stop_at=14.0)
    legit = NewFlowSource(sim, client, victim.ip, rate_fps=80.0)
    legit.start(at=0.5, stop_at=14.0)

    # 5. Instrument: overlay share, sampled once a second.
    overlay_share = []

    def sample() -> None:
        counts = scotch.flow_db.counts()
        overlay_share.append(counts.get("overlay", 0) / max(1, sum(counts.values())))
        sampler.rearm()

    sampler = PeriodicTimer(sim, 1.0, sample)
    sampler.start()

    sim.run(until=15.5)

    failure = client_flow_failure_fraction(
        client.sent_tap, victim.recv_tap, start=4.0, end=13.0)
    print("Leaf-spine fabric, flood 2500 f/s at leaf0, client at leaf1\n")
    print(f"overlay active at      : {sorted(scotch.overlay.active)}")
    print(f"client failure (attack): {failure:.1%}")
    print(f"flows via overlay      : {scotch.flow_db.counts().get('overlay', 0)}")
    print(f"security reports       : {len(security.reports)} "
          f"(first names {security.reports[0].switch} port "
          f"{security.reports[0].port})" if security.reports else "security reports: none")
    print(f"overlay share timeline : {sparkline(overlay_share)}")


if __name__ == "__main__":
    main()
