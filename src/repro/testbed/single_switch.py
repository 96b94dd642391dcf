"""The paper's Fig. 2 testbed: one switch under test.

"The attacker, the client and the server are all attached to the data
ports, and the controller is attached to the management port."  The
controller runs plain reactive forwarding (the paper's §3 baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.controller.controller import OpenFlowController
from repro.core.baselines import ReactiveForwardingApp
from repro.net.builders import HOST_BPS
from repro.net.host import Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.profiles import PICA8_PRONTO_3780, SwitchProfile
from repro.switch.switch import OpenFlowSwitch

SERVER_IP = "10.0.0.100"


@dataclass
class SingleSwitchTestbed:
    """Handles to everything in the Fig. 2 setup."""

    sim: Simulator
    network: Network
    switch: OpenFlowSwitch
    client: Host
    attacker: Host
    server: Host
    controller: OpenFlowController


def build_single_switch(
    profile: SwitchProfile = PICA8_PRONTO_3780,
    seed: int = 0,
) -> SingleSwitchTestbed:
    """Build the testbed."""
    sim = Simulator(seed=seed)
    network = Network(sim)
    switch = network.add(OpenFlowSwitch(sim, "sw1", profile))
    client = network.add(Host(sim, "client0", "10.20.0.1"))
    network.link(client.name, "sw1", HOST_BPS)
    attacker = network.add(Host(sim, "attacker", "10.99.0.1"))
    network.link("attacker", "sw1", HOST_BPS)
    server = network.add(Host(sim, "server", SERVER_IP))
    network.link("server", "sw1", HOST_BPS)

    controller = OpenFlowController(sim, network)
    controller.register_switch(switch)
    controller.add_app(ReactiveForwardingApp())
    return SingleSwitchTestbed(
        sim=sim,
        network=network,
        switch=switch,
        client=client,
        attacker=attacker,
        server=server,
        controller=controller,
    )
