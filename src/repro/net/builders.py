"""The leaf-spine topology builder.

DESIGN.md's inventory calls for a standard data-center shape; the
builder produces a :class:`~repro.net.topology.Network` plus handles to
the switches/hosts, ready for a controller and (optionally) a Scotch
overlay.  It only builds the *physical* underlay — overlay construction
stays explicit so tests and scenarios control vSwitch placement;
``repro.testbed.deployment.attach_scotch`` then wires the control plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.net.host import Host
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.profiles import PICA8_PRONTO_3780, SwitchProfile
from repro.switch.switch import PhysicalSwitch

#: Link speeds: switch-to-switch fabric and host/vSwitch attachment.
FABRIC_BPS = 10e9
HOST_BPS = 1e9


@dataclass
class BuiltTopology:
    """A physical underlay plus convenient handles."""

    sim: Simulator
    network: Network
    switches: List[PhysicalSwitch]
    hosts: List[Host]
    #: Layer name -> switch names ("leaf", "spine").
    layers: Dict[str, List[str]] = field(default_factory=dict)


def leaf_spine(
    leaves: int = 4,
    spines: int = 2,
    hosts_per_leaf: int = 2,
    seed: int = 0,
    profile: SwitchProfile = PICA8_PRONTO_3780,
) -> BuiltTopology:
    """The standard two-tier Clos: every leaf links to every spine."""
    if leaves < 1 or spines < 1:
        raise ValueError("need at least one leaf and one spine")
    sim = Simulator(seed=seed)
    network = Network(sim)
    switches, hosts = [], []
    spine_names, leaf_names = [], []
    for index in range(spines):
        switch = network.add(PhysicalSwitch(sim, f"spine{index}", profile))
        switches.append(switch)
        spine_names.append(switch.name)
    for index in range(leaves):
        leaf = network.add(PhysicalSwitch(sim, f"leaf{index}", profile))
        switches.append(leaf)
        leaf_names.append(leaf.name)
        for spine in spine_names:
            network.link(leaf.name, spine, FABRIC_BPS)
        for h in range(hosts_per_leaf):
            host = network.add(Host(sim, f"h{index}_{h}", f"10.0.{index}.{h + 1}"))
            network.link(host.name, leaf.name, HOST_BPS)
            hosts.append(host)
    return BuiltTopology(sim, network, switches, hosts,
                         layers={"spine": spine_names, "leaf": leaf_names})

