"""Finite-rate links with drop-tail queues.

A :class:`DirectedLink` is one direction of a cable: serialization at
``rate_bps``, propagation ``delay`` seconds, and a drop-tail queue of
``QUEUE_PACKETS`` packet trains awaiting serialization.  ``connect``
builds both directions and returns the two new ports.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator

#: Queue depth, in packet trains.  Deep enough that control-path
#: experiments never see link loss (the paper's point: the data plane is
#: uncongested), shallow enough that a saturated link drops.
QUEUE_PACKETS = 1000


class DirectedLink:
    """One direction of a link, delivering into ``dst_node``.

    The link is a FIFO server with a deterministic service time
    (``wire_bits / rate_bps``) and nothing can perturb a packet once it
    is accepted, so the whole serialize→propagate pipeline is computed
    arithmetically at transmit time and handed to ``dst_node.arrive``: at
    most one event per packet (the delivery; none at a switch, whose
    datapath admits arrivals itself).  Serialization-start times are
    kept per pending packet so the drop-tail decision sees the same
    queue depth the explicit per-stage events used to maintain.
    """

    def __init__(
        self,
        sim: "Simulator",
        rate_bps: float,
        delay: float,
        dst_node: "Node",
        dst_port_no: int,
        name: str = "",
    ):
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("link delay must be non-negative")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay = delay
        self.dst_node = dst_node
        self.dst_port_no = dst_port_no
        #: ``dst_node.arrive``, bound once (a switch's is its datapath's).
        self._arrive = dst_node.arrive
        self.name = name or f"->{dst_node.name}:{dst_port_no}"
        #: Serialization-start times of accepted-but-not-yet-serializing
        #: packets; the awaiting-serialization queue, as start times.
        self._pending_starts: Deque[float] = deque()
        self._busy_until = 0.0
        self.delivered = 0
        self.dropped = 0

    def transmit(self, packet: "Packet") -> None:
        """Accept for serialization; drop-tail when the queue is full."""
        now = self.sim.now
        pending = self._pending_starts
        # Packets whose serialization has begun (start <= now) have left
        # the awaiting queue; strict '>' keeps a start at exactly `now`
        # out of the depth, matching the event-per-stage ordering where
        # the serialization start fires before this transmit.
        while pending and pending[0] <= now:
            pending.popleft()
        if len(pending) >= QUEUE_PACKETS:
            self.dropped += packet.count
            return
        start = self._busy_until
        if start < now:
            start = now
        # packet.wire_bits, inlined (one property call per packet-hop adds up)
        done = start + (packet.size + packet._overhead) * 8 * packet.count / self.rate_bps
        self._busy_until = done
        pending.append(start)
        self._arrive(packet, self.dst_port_no, done + self.delay, self)

    def _deliver(self, packet: "Packet") -> None:
        self.delivered += packet.count
        self.dst_node.receive(packet, self.dst_port_no)


def connect(
    sim: "Simulator",
    node_a: "Node",
    node_b: "Node",
    rate_bps: float = 1e9,
    delay: float = 50e-6,
) -> Tuple["Port", "Port"]:
    """Wire a full-duplex link between two nodes.

    Returns ``(port_on_a, port_on_b)``.  Each side gets a fresh port and a
    DirectedLink toward the other.
    """
    port_a = node_a.allocate_port()
    port_b = node_b.allocate_port()
    for src, dst in ((port_a, port_b), (port_b, port_a)):
        src.attach(DirectedLink(sim, rate_bps, delay, dst.node, dst.port_no,
                                name=f"{src.name}->{dst.name}"))
    return port_a, port_b
