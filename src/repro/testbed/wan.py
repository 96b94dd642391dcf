"""Wide-area Scotch deployment (paper §4.1: the vSwitch pool may be
"distributed at different locations for a wide-area SDN network").

Topology: N sites in a ring, each with a PoP (point-of-presence)
physical switch, one mesh vSwitch, and a server; inter-site links carry
WAN propagation delays (milliseconds instead of microseconds).  Clients
and the attacker enter at site 0.  Everything else — overlay
construction, Scotch app — is identical to the data-center deployment,
which is the point: the overlay abstraction does not care about the
underlay's scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.controller.controller import OpenFlowController
from repro.core.app import ScotchApp
from repro.core.config import ScotchConfig
from repro.core.overlay import ScotchOverlay
from repro.core.policy import PolicyRegistry
from repro.net.host import Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.profiles import OPEN_VSWITCH, PICA8_PRONTO_3780, SwitchProfile
from repro.switch.switch import PhysicalSwitch, VSwitch

#: Inter-site (WAN) propagation delay and local-attachment delay.
WAN_DELAY = 10e-3
LOCAL_DELAY = 50e-6
WAN_BPS = 10e9
LOCAL_BPS = 1e9


@dataclass
class WanDeployment:
    sim: Simulator
    network: Network
    controller: OpenFlowController
    overlay: ScotchOverlay
    scotch: Optional[ScotchApp]
    pops: List[PhysicalSwitch]
    mesh_vswitches: List[VSwitch]
    servers: List[Host]
    client: Host
    attacker: Host


def build_wan_deployment(
    sites: int = 3,
    seed: int = 0,
    wan_delay: float = WAN_DELAY,
    switch_profile: SwitchProfile = PICA8_PRONTO_3780,
    config: Optional[ScotchConfig] = None,
    add_scotch_app: bool = True,
) -> WanDeployment:
    """Build the multi-site ring; the Scotch controller sits at site 0
    (control latency to remote PoPs includes the WAN delay)."""
    if sites < 2:
        raise ValueError("a WAN needs at least two sites")
    sim = Simulator(seed=seed)
    network = Network(sim)
    config = config or ScotchConfig()
    overlay = ScotchOverlay(network, config)

    # The physical ring first — mesh tunnels need underlay paths to
    # exist when the vSwitches join the overlay.
    pops: List[PhysicalSwitch] = []
    for site in range(sites):
        # Remote PoPs are controlled across the WAN.
        latency = switch_profile.control_latency + (wan_delay if site else 0.0)
        pops.append(
            network.add(
                PhysicalSwitch(sim, f"pop{site}", switch_profile, control_latency=latency)
            )
        )
    for site in range(sites):
        network.link(f"pop{site}", f"pop{(site + 1) % sites}", WAN_BPS, delay=wan_delay)

    mesh: List[VSwitch] = []
    servers: List[Host] = []
    for site in range(sites):
        vswitch = network.add(VSwitch(sim, f"wmv{site}", OPEN_VSWITCH,
                                      control_latency=OPEN_VSWITCH.control_latency
                                      + (wan_delay if site else 0.0)))
        network.link(vswitch.name, f"pop{site}", LOCAL_BPS, delay=LOCAL_DELAY)
        mesh.append(vswitch)
        overlay.add_mesh_vswitch(vswitch.name)
        server = network.add(Host(sim, f"wserver{site}", f"10.1.{site}.10"))
        network.link(server.name, f"pop{site}", LOCAL_BPS, delay=LOCAL_DELAY)
        servers.append(server)

    client = network.add(Host(sim, "client", "10.20.0.1"))
    attacker = network.add(Host(sim, "attacker", "10.99.0.1"))
    network.link("client", "pop0", LOCAL_BPS, delay=LOCAL_DELAY)
    network.link("attacker", "pop0", LOCAL_BPS, delay=LOCAL_DELAY)

    for site in range(sites):
        overlay.set_host_delivery(f"wserver{site}", None, f"wmv{site}")
    overlay.set_host_delivery("client", None, "wmv0")
    overlay.set_host_delivery("attacker", None, "wmv0")
    for pop in pops:
        # Spread each PoP over its local vSwitch first, then a remote one.
        local = f"wmv{pop.name[3:]}"
        remote = mesh[(int(pop.name[3:]) + 1) % sites].name
        overlay.register_switch(pop.name, vswitches=[local, remote][: config.vswitches_per_switch])

    controller = OpenFlowController(sim, network)
    for node in network.nodes.values():
        if isinstance(node, (PhysicalSwitch, VSwitch)):
            controller.register_switch(node)

    scotch: Optional[ScotchApp] = None
    if add_scotch_app:
        scotch = ScotchApp(overlay, config=config,
                           policy=PolicyRegistry(network, overlay))
        controller.add_app(scotch)

    return WanDeployment(
        sim=sim,
        network=network,
        controller=controller,
        overlay=overlay,
        scotch=scotch,
        pops=pops,
        mesh_vswitches=mesh,
        servers=servers,
        client=client,
        attacker=attacker,
    )
