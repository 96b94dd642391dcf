"""The paper's Fig. 2 testbed: one switch under test.

"The attacker, the client and the server are all attached to the data
ports, and the controller is attached to the management port."  Multiple
client ports are supported for the ingress-port-differentiation
experiment (each client host lands on its own switch port).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.controller.base_app import BaseApp
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
    clients: List[Host]
    attacker: Host
    server: Host
    controller: OpenFlowController

    @property
    def client(self) -> Host:
        return self.clients[0]


def build_single_switch(
    profile: SwitchProfile = PICA8_PRONTO_3780,
    seed: int = 0,
    n_clients: int = 1,
    app_factory: Optional[Callable[[], BaseApp]] = None,
) -> SingleSwitchTestbed:
    """Build the testbed; ``app_factory`` defaults to plain reactive
    forwarding (the paper's §3 baseline)."""
    sim = Simulator(seed=seed)
    network = Network(sim)
    switch = network.add(OpenFlowSwitch(sim, "sw1", profile))
    clients = []
    for index in range(n_clients):
        client = network.add(Host(sim, f"client{index}", f"10.20.{index}.1"))
        network.link(client.name, "sw1", HOST_BPS)
        clients.append(client)
    attacker = network.add(Host(sim, "attacker", "10.99.0.1"))
    network.link("attacker", "sw1", HOST_BPS)
    server = network.add(Host(sim, "server", SERVER_IP))
    network.link("server", "sw1", HOST_BPS)

    controller = OpenFlowController(sim, network)
    controller.register_switch(switch)
    app = app_factory() if app_factory is not None else ReactiveForwardingApp()
    controller.add_app(app)
    return SingleSwitchTestbed(
        sim=sim,
        network=network,
        switch=switch,
        clients=clients,
        attacker=attacker,
        server=server,
        controller=controller,
    )
