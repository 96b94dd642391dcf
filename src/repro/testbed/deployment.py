"""Scotch deployments: three underlays, one control-plane wiring.

The overlay does not depend on the underlay (§4.1): a vSwitch mesh
attaches to whatever physical switches need it.  Each builder here lays
out its nodes and links, adds mesh vSwitches and delivery mappings as it
goes, then hands the overlay to :func:`attach_scotch`, the one place an
overlay becomes a controlled deployment.  All three return a
:class:`Deployment`.

* :func:`build_deployment` — the paper's Fig. 5 data center;
* :func:`build_scale_overlay` — a moderate mesh fronting hundreds of
  host vSwitches (§4.1, §6);
* :func:`build_wan_deployment` — a ring of sites joined by WAN links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence

from repro.controller.controller import OpenFlowController
from repro.core.app import ScotchApp
from repro.core.config import ScotchConfig
from repro.core.overlay import ScotchOverlay
from repro.core.policy import Policy, PolicyRegistry
from repro.net.builders import FABRIC_BPS, HOST_BPS
from repro.net.host import Host
from repro.net.middlebox import Firewall
from repro.net.topology import Network
from repro.sim.engine import Simulator
from repro.switch.profiles import OPEN_VSWITCH, PICA8_PRONTO_3780, SwitchProfile
from repro.switch.switch import OpenFlowSwitch, PhysicalSwitch, VSwitch

#: Inter-site (WAN) propagation delay and local-attachment delay.
WAN_DELAY = 10e-3
LOCAL_DELAY = 50e-6


@dataclass
class Deployment:
    """Handles to everything in a deployment (:func:`attach_scotch`
    makes one; the host-side handles are the ones its builder laid out)."""

    sim: Simulator
    network: Network
    controller: OpenFlowController
    overlay: ScotchOverlay
    policy: PolicyRegistry
    scotch: Optional[ScotchApp]
    #: The Scotch-managed physical switches, in registration order;
    #: external traffic enters at the first.
    switches: List[PhysicalSwitch]
    #: The overlay's mesh vSwitches, then its backups.
    mesh_vswitches: List[VSwitch]
    host_vswitches: List[VSwitch]
    servers: List[Host]
    client: Optional[Host]
    attacker: Optional[Host]
    firewall: Optional[Firewall]

    @property
    def edge(self) -> PhysicalSwitch:
        return self.switches[0]

    @property
    def targets(self) -> List[Host]:
        """The servers with overlay delivery mappings."""
        return [s for s in self.servers if s.name in self.overlay.local_mesh_of]


def attach_scotch(
    network: Network,
    overlay: ScotchOverlay,
    switches: Sequence[OpenFlowSwitch],
    *,
    vswitches: Optional[Mapping[str, Sequence[str]]] = None,
    configure_policy: Optional[Callable[[PolicyRegistry], None]] = None,
    add_scotch_app: bool = True,
    host_vswitches: Sequence[VSwitch] = (),
    servers: Sequence[Host] = (),
    client: Optional[Host] = None,
    attacker: Optional[Host] = None,
    firewall: Optional[Firewall] = None,
) -> Deployment:
    """Put ``overlay`` under control: register ``switches`` with it
    (each over its ``vswitches`` entry, else round-robin over the mesh),
    register every switch of ``network`` in network order with one
    controller, create the policy and, if asked, add the Scotch app.
    The remaining keywords are the host-side :class:`Deployment` handles.

    ``configure_policy`` exists for Fig. 5's firewall: it is linked in
    and attached to the policy after the switches are registered and
    before the app starts, the order the golden masters pin."""
    for switch in switches:
        overlay.register_switch(switch.name, (vswitches or {}).get(switch.name))
    controller = OpenFlowController(network.sim, network)
    for node in network.nodes.values():
        if isinstance(node, OpenFlowSwitch):
            controller.register_switch(node)
    policy = PolicyRegistry(network, overlay)
    if configure_policy is not None:
        configure_policy(policy)
    scotch = (controller.add_app(ScotchApp(overlay, policy=policy))
              if add_scotch_app else None)
    mesh = [network[name] for name in overlay.mesh + overlay.backups]
    return Deployment(network.sim, network, controller, overlay, policy, scotch,
                      list(switches), mesh, list(host_vswitches), list(servers),
                      client, attacker, firewall)


def build_deployment(
    seed: int = 0,
    racks: int = 2,
    servers_per_rack: int = 2,
    mesh_per_rack: int = 1,
    backups: int = 0,
    switch_profile: SwitchProfile = PICA8_PRONTO_3780,
    config: Optional[ScotchConfig] = None,
    with_firewall: bool = False,
    add_scotch_app: bool = True,
) -> Deployment:
    """The full Scotch deployment of paper Fig. 5::

        client, attacker --- edge switch --- spine --- ToR_i --- host vSwitch_i --- servers
                                               |          |
                                         (middlebox)   mesh vSwitch(es)

    * physical switches: one edge (where external traffic enters), one
      spine, one ToR per rack — all ``switch_profile`` (by default the
      Scotch-capable Pica8);
    * per rack: a host vSwitch fronting the rack's servers and
      ``mesh_per_rack`` mesh vSwitches for the overlay, plus ``backups``
      backup vSwitches spread over the racks;
    * optionally a stateful firewall hanging off S_U=edge / S_D=spine,
      with a policy forcing all server-bound traffic through it;
    * the Scotch overlay fully built offline: mesh tunnels, switch
      tunnels, delivery tunnels, static rules.
    """
    if racks < 1 or servers_per_rack < 1 or mesh_per_rack < 1:
        raise ValueError("racks, servers_per_rack, mesh_per_rack must be >= 1")
    sim = Simulator(seed=seed)
    network = Network(sim)

    edge = network.add(PhysicalSwitch(sim, "edge", switch_profile))
    spine = network.add(PhysicalSwitch(sim, "spine", switch_profile))
    network.link("edge", "spine", FABRIC_BPS)

    client = network.add(Host(sim, "client", "10.20.0.1"))
    attacker = network.add(Host(sim, "attacker", "10.99.0.1"))
    network.link("client", "edge", HOST_BPS)
    network.link("attacker", "edge", HOST_BPS)

    tors: List[PhysicalSwitch] = []
    host_vswitches: List[VSwitch] = []
    servers: List[Host] = []
    overlay = ScotchOverlay(network, config)

    for rack in range(racks):
        tor = network.add(PhysicalSwitch(sim, f"tor{rack}", switch_profile))
        network.link(tor.name, "spine", FABRIC_BPS)
        tors.append(tor)
        hv = network.add(VSwitch(sim, f"hv{rack}", OPEN_VSWITCH))
        network.link(hv.name, tor.name, HOST_BPS)
        host_vswitches.append(hv)
        for index in range(servers_per_rack):
            server = network.add(Host(sim, f"server{rack}_{index}", f"10.0.{rack}.{10 + index}"))
            network.link(server.name, hv.name, HOST_BPS)
            servers.append(server)
        for index in range(mesh_per_rack):
            mv = network.add(VSwitch(sim, f"mv{rack}_{index}", OPEN_VSWITCH))
            network.link(mv.name, tor.name, HOST_BPS)
            overlay.add_mesh_vswitch(mv.name)
    for index in range(backups):
        bv = network.add(VSwitch(sim, f"bv{index}", OPEN_VSWITCH))
        network.link(bv.name, tors[index % racks].name, HOST_BPS)
        overlay.add_mesh_vswitch(bv.name, backup=True)

    # Overlay delivery mappings + tunnels (offline configuration).
    for rack in range(racks):
        local_mesh = f"mv{rack}_0"
        for index in range(servers_per_rack):
            overlay.set_host_delivery(f"server{rack}_{index}", f"hv{rack}", local_mesh)
    # External hosts are reachable via direct delivery tunnels too (so
    # reverse/odd traffic cannot strand); their local mesh is rack 0's.
    overlay.set_host_delivery("client", None, "mv0_0")
    overlay.set_host_delivery("attacker", None, "mv0_0")

    firewall = Firewall(sim, "fw0") if with_firewall else None

    def attach_firewall(policy: PolicyRegistry) -> None:
        network.add(firewall)
        network.link("edge", "fw0", FABRIC_BPS)
        network.link("fw0", "spine", FABRIC_BPS)
        network.exclude_from_routing("fw0")
        policy.attach_middlebox("fw0", upstream="edge", downstream="spine")
        server_ips = {s.ip for s in servers}
        policy.add_policy(
            Policy(
                name="servers-behind-fw",
                predicate=lambda key, ips=server_ips: key.dst_ip in ips,
                chain=["fw0"],
            )
        )

    return attach_scotch(
        network, overlay, [edge, spine] + tors,
        configure_policy=attach_firewall if firewall else None,
        add_scotch_app=add_scotch_app, host_vswitches=host_vswitches,
        servers=servers, client=client, attacker=attacker, firewall=firewall)


def check_scale_sizes(host_vswitches: int, mesh: int, tors: int) -> None:
    """The scale overlay's size rule (the ``scale`` scenario and CLI
    check it before building)."""
    if host_vswitches < 1 or mesh < 2 or tors < 1:
        raise ValueError("need host_vswitches >= 1, mesh >= 2, tors >= 1")


def build_scale_overlay(
    seed: int = 0,
    host_vswitches: int = 480,
    mesh: int = 24,
    tors: int = 8,
    targets: int = 16,
    config: Optional[ScotchConfig] = None,
) -> Deployment:
    """The scale topology (``host_vswitches + mesh`` vSwitches).

    ``build_deployment`` couples the mesh size to the rack count (every
    rack carries a mesh vSwitch), which makes the O(mesh²) overlay
    tunnel fabric explode long before the vSwitch count gets
    interesting.  This is the shape the paper argues for at scale
    (§4.1, §6): a *moderate* fully-meshed overlay core (tens of mesh
    vSwitches — the elastic control-plane capacity) fronting *hundreds*
    of host vSwitches (one per tenant rack slice — where the east-west
    edge really lives)::

        client -- edge -- spine -- tor_k -- hv_i -- server_i   (i: 0..hosts)
                             |       |
                         (overlay)  mv_j                        (j: 0..mesh)

    ``targets`` of the servers are the flash-crowd services: they get
    overlay delivery mappings (and hence delivery tunnels from every
    mesh vSwitch); the remaining host vSwitches model idle tenants.
    """
    check_scale_sizes(host_vswitches, mesh, tors)
    sim = Simulator(seed=seed)
    network = Network(sim)

    edge = network.add(PhysicalSwitch(sim, "edge", PICA8_PRONTO_3780))
    spine = network.add(PhysicalSwitch(sim, "spine", PICA8_PRONTO_3780))
    network.link("edge", "spine", FABRIC_BPS)
    client = network.add(Host(sim, "client", "10.20.0.1"))
    network.link("client", "edge", HOST_BPS)

    tor_switches: List[PhysicalSwitch] = []
    for k in range(tors):
        tor = network.add(PhysicalSwitch(sim, f"tor{k}", PICA8_PRONTO_3780))
        network.link(tor.name, "spine", FABRIC_BPS)
        tor_switches.append(tor)

    overlay = ScotchOverlay(network, config)
    for j in range(mesh):
        mv = network.add(VSwitch(sim, f"mv{j}", OPEN_VSWITCH))
        network.link(mv.name, tor_switches[j % tors].name, HOST_BPS)
        overlay.add_mesh_vswitch(mv.name)

    hv_switches: List[VSwitch] = []
    servers: List[Host] = []
    for i in range(host_vswitches):
        hv = network.add(VSwitch(sim, f"hv{i}", OPEN_VSWITCH))
        network.link(hv.name, tor_switches[i % tors].name, HOST_BPS)
        hv_switches.append(hv)
        server = network.add(
            Host(sim, f"server{i}", f"10.{1 + i // 200}.{i % 200}.10")
        )
        network.link(server.name, hv.name, HOST_BPS)
        servers.append(server)

    # Delivery mappings: the flash-crowd services plus the client (so
    # reverse traffic over the overlay cannot strand).
    for i in range(min(targets, host_vswitches)):
        overlay.set_host_delivery(servers[i].name, hv_switches[i].name, f"mv{i % mesh}")
    overlay.set_host_delivery("client", None, "mv0")
    return attach_scotch(network, overlay, [edge, spine] + tor_switches,
                         host_vswitches=hv_switches, servers=servers, client=client)


def build_wan_deployment(
    sites: int = 3,
    seed: int = 0,
    config: Optional[ScotchConfig] = None,
) -> Deployment:
    """A wide-area deployment (§4.1: the vSwitch pool may be
    "distributed at different locations for a wide-area SDN network").

    N sites in a ring, each with a PoP (point-of-presence) physical
    switch, one mesh vSwitch and a server; inter-site links carry
    ``WAN_DELAY`` (milliseconds instead of microseconds).  The client
    and the attacker enter at site 0, where the controller sits, so
    control latency to remote PoPs and their vSwitches includes the WAN
    delay.  Each PoP spreads over its local vSwitch first, then the
    next site's.
    """
    if sites < 2:
        raise ValueError("a WAN needs at least two sites")
    sim = Simulator(seed=seed)
    network = Network(sim)
    overlay = ScotchOverlay(network, config)

    # The physical ring first — mesh tunnels need underlay paths to
    # exist when the vSwitches join the overlay.
    pops: List[PhysicalSwitch] = []
    for site in range(sites):
        latency = PICA8_PRONTO_3780.control_latency + (WAN_DELAY if site else 0.0)
        pops.append(network.add(PhysicalSwitch(
            sim, f"pop{site}", PICA8_PRONTO_3780, control_latency=latency)))
    for site in range(sites):
        network.link(f"pop{site}", f"pop{(site + 1) % sites}", FABRIC_BPS, delay=WAN_DELAY)

    servers: List[Host] = []
    for site in range(sites):
        vswitch = network.add(VSwitch(sim, f"wmv{site}", OPEN_VSWITCH,
                                      control_latency=OPEN_VSWITCH.control_latency
                                      + (WAN_DELAY if site else 0.0)))
        network.link(vswitch.name, f"pop{site}", HOST_BPS, delay=LOCAL_DELAY)
        overlay.add_mesh_vswitch(vswitch.name)
        server = network.add(Host(sim, f"wserver{site}", f"10.1.{site}.10"))
        network.link(server.name, f"pop{site}", HOST_BPS, delay=LOCAL_DELAY)
        servers.append(server)

    client = network.add(Host(sim, "client", "10.20.0.1"))
    attacker = network.add(Host(sim, "attacker", "10.99.0.1"))
    network.link("client", "pop0", HOST_BPS, delay=LOCAL_DELAY)
    network.link("attacker", "pop0", HOST_BPS, delay=LOCAL_DELAY)

    for site in range(sites):
        overlay.set_host_delivery(f"wserver{site}", None, f"wmv{site}")
    overlay.set_host_delivery("client", None, "wmv0")
    overlay.set_host_delivery("attacker", None, "wmv0")

    share = overlay.config.vswitches_per_switch
    local_then_remote = {f"pop{site}": [f"wmv{site}", f"wmv{(site + 1) % sites}"][:share]
                         for site in range(sites)}
    return attach_scotch(network, overlay, pops, vswitches=local_then_remote,
                         servers=servers, client=client, attacker=attacker)
