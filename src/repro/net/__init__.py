"""Network substrate: packets, flows, links, topology, tunnels, hosts.

This package models the data plane the paper's testbed runs on: Ethernet/
IP/TCP-style packets with MPLS encapsulation stacks, finite-rate
links with drop-tail queues, a topology registry (backed by networkx),
MPLS tunnels over the physical fabric, traffic-terminating hosts
with tcpdump-style taps (:mod:`repro.net.tap`, which also computes the
§3.2 client flow failure fraction from them), and the stateful
middleboxes used by the policy-consistency design (paper Fig. 8).

The leaf-spine topology builder lives in :mod:`repro.net.builders`;
import it from there directly — it depends on the switch package, which
in turn depends on this one, so it stays out of the package namespace to
avoid an import cycle.
"""

from repro.net.addresses import ip_to_int, int_to_ip, make_ip
from repro.net.flow import FlowKey
from repro.net.links import DirectedLink, connect
from repro.net.node import Node
from repro.net.packet import MplsHeader, Packet
from repro.net.ports import Port
from repro.net.topology import Network

__all__ = [
    "DirectedLink",
    "FlowKey",
    "MplsHeader",
    "Network",
    "Node",
    "Packet",
    "Port",
    "connect",
    "int_to_ip",
    "ip_to_int",
    "make_ip",
]
