"""Canonical topology builders: linear, leaf-spine, fat-tree.

DESIGN.md's inventory calls for standard data-center shapes; these
builders produce a :class:`~repro.net.topology.Network` plus handles to
the switches/hosts, ready for a controller and (optionally) a Scotch
overlay.  They only build the *physical* underlay — overlay construction
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
    #: Layer name -> switch names (e.g. "leaf", "spine", "core"...).
    layers: Dict[str, List[str]] = field(default_factory=dict)


def linear(
    n_switches: int,
    hosts_per_switch: int = 1,
    seed: int = 0,
    profile: SwitchProfile = PICA8_PRONTO_3780,
) -> BuiltTopology:
    """A chain s0 - s1 - ... with hosts hanging off every switch."""
    if n_switches < 1:
        raise ValueError("need at least one switch")
    sim = Simulator(seed=seed)
    network = Network(sim)
    switches, hosts = [], []
    for index in range(n_switches):
        switches.append(network.add(PhysicalSwitch(sim, f"s{index}", profile)))
        if index:
            network.link(f"s{index - 1}", f"s{index}", FABRIC_BPS)
        for h in range(hosts_per_switch):
            host = network.add(Host(sim, f"h{index}_{h}", f"10.0.{index}.{h + 1}"))
            network.link(host.name, f"s{index}", HOST_BPS)
            hosts.append(host)
    return BuiltTopology(sim, network, switches, hosts,
                         layers={"chain": [s.name for s in switches]})


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


def fat_tree(
    k: int = 4,
    seed: int = 0,
    profile: SwitchProfile = PICA8_PRONTO_3780,
) -> BuiltTopology:
    """The classic k-ary fat-tree (k even): (k/2)^2 cores, k pods of
    k/2 aggregation + k/2 edge switches, (k/2)^2 hosts per pod... scaled
    to one host per edge switch to keep simulations tractable."""
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    half = k // 2
    sim = Simulator(seed=seed)
    network = Network(sim)
    switches, hosts = [], []
    cores, aggs, edges = [], [], []

    for index in range(half * half):
        core = network.add(PhysicalSwitch(sim, f"core{index}", profile))
        switches.append(core)
        cores.append(core.name)
    for pod in range(k):
        pod_aggs, pod_edges = [], []
        for a in range(half):
            agg = network.add(PhysicalSwitch(sim, f"agg{pod}_{a}", profile))
            switches.append(agg)
            aggs.append(agg.name)
            pod_aggs.append(agg.name)
            # Each aggregation switch links to `half` cores.
            for c in range(half):
                network.link(agg.name, f"core{a * half + c}", FABRIC_BPS)
        for e in range(half):
            edge = network.add(PhysicalSwitch(sim, f"edge{pod}_{e}", profile))
            switches.append(edge)
            edges.append(edge.name)
            pod_edges.append(edge.name)
            for agg in pod_aggs:
                network.link(edge.name, agg, FABRIC_BPS)
            host = network.add(Host(sim, f"h{pod}_{e}", f"10.{pod}.{e}.1"))
            network.link(host.name, edge.name, HOST_BPS)
            hosts.append(host)
    return BuiltTopology(sim, network, switches, hosts,
                         layers={"core": cores, "agg": aggs, "edge": edges})
