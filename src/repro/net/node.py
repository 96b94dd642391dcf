"""Base class for everything attached to the network graph."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.links import DirectedLink
    from repro.net.packet import Packet
    from repro.net.ports import Port
    from repro.sim.engine import Simulator


class Node:
    """A named network element with numbered ports.

    Subclasses (switches, hosts, middleboxes) implement
    :meth:`receive` — called by the incoming link when a packet finishes
    its traversal.
    """

    def __init__(self, sim: "Simulator", name: str):
        self.sim = sim
        self.name = name
        self.ports: Dict[int, "Port"] = {}
        self._next_port_no = 1

    def allocate_port(self) -> "Port":
        """Create the next numbered port on this node."""
        from repro.net.ports import Port

        port_no = self._next_port_no
        self._next_port_no += 1
        port = Port(self, port_no)
        self.ports[port_no] = port
        return port

    def port(self, port_no: int) -> "Port":
        return self.ports[port_no]

    def port_to(self, neighbor_name: str) -> Optional["Port"]:
        """The port whose link leads to ``neighbor_name``, if any."""
        for port in self.ports.values():
            if port.link is not None and port.link.dst_node.name == neighbor_name:
                return port
        return None

    def arrive(self, packet: "Packet", in_port: int, at: float, link: "DirectedLink") -> None:
        """``link`` will deliver ``packet`` on ``in_port`` at time ``at``:
        by default one delivery event then.  A node that can account for
        the arrival itself (a switch datapath) overrides this."""
        self.sim.schedule_at(at, link._deliver, packet)

    def receive(self, packet: "Packet", in_port: int) -> None:
        """Handle a packet arriving on ``in_port``.  Subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
