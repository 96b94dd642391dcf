"""Switch/host ports."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.links import DirectedLink
    from repro.net.node import Node
    from repro.net.packet import Packet


class Port:
    """One numbered port on a node; ``link`` is the outgoing direction."""

    def __init__(self, node: "Node", port_no: int):
        self.node = node
        self.port_no = port_no
        self.link: Optional["DirectedLink"] = None

    @property
    def name(self) -> str:
        return f"{self.node.name}:{self.port_no}"

    def attach(self, link: "DirectedLink") -> None:
        if self.link is not None:
            raise ValueError(f"port {self.name} already attached")
        self.link = link

    def send(self, packet: "Packet") -> None:
        """Transmit onto the attached link; silently drops if unattached
        (an unattached port behaves like an unplugged cable)."""
        if self.link is not None:
            self.link.transmit(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.name}>"
