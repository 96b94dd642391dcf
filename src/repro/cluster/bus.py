"""The controller-pool coordination bus.

Pool members (docs/cluster.md) coordinate — leader-lease beats,
election claims, role assignments — over a message bus modelling the
controllers' east-west management network: fixed one-way delay,
optional probabilistic loss and group partitions (the chaos layer's
``pool_election_loss`` / ``pool_partition`` faults).

Determinism mirrors :class:`~repro.openflow.channel.ControlChannel`:
loss draws come from a dedicated ``pool.bus`` RNG substream created
lazily on first use, so a run that never impairs the bus performs no
draws and stays bit-identical to one where the chaos layer was never
imported.  Delivery checks (liveness, loss, partition membership) run
at *arrival* time, so messages in flight when a member crashes or a
partition lands die exactly like unacked TCP segments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: handler(src_member_id, payload)
Handler = Callable[[str, Tuple[object, ...]], None]


class PoolBus:
    """Member-to-member messaging with delay, loss and partitions."""

    def __init__(self, sim: "Simulator", delay: float):
        if delay < 0:
            raise ValueError("bus delay must be non-negative")
        self.sim = sim
        self.delay = delay
        self._handlers: Dict[str, Handler] = {}
        #: Probability a delivery is dropped (chaos: election loss).
        self.loss = 0.0
        #: member id -> partition group index; empty = fully connected.
        self._partition: Dict[str, int] = {}
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.partition_blocked = 0
        self._rng = None  # created lazily on first lossy delivery

    # ------------------------------------------------------------------
    def attach(self, member_id: str, handler: Handler) -> None:
        self._handlers[member_id] = handler

    def detach(self, member_id: str) -> None:
        self._handlers.pop(member_id, None)

    # ------------------------------------------------------------------
    def broadcast(self, src: str, payload: Tuple[object, ...]) -> None:
        """Deliver ``payload`` to every other attached member."""
        for member_id in sorted(self._handlers):
            if member_id != src:
                self.send(src, member_id, payload)

    def send(self, src: str, dst: str, payload: Tuple[object, ...]) -> None:
        self.sent += 1
        self.sim.schedule(self.delay, self._deliver, src, dst, payload,
                          daemon=True)

    def _deliver(self, src: str, dst: str, payload: Tuple[object, ...]) -> None:
        handler = self._handlers.get(dst)
        if handler is None:
            return  # crashed/retired since the send
        if self._partition:
            # Unlisted members sit in the implicit group -1.
            if self._partition.get(src, -1) != self._partition.get(dst, -1):
                self.partition_blocked += 1
                return
        if self.loss:
            if self._rng is None:
                self._rng = self.sim.rng.stream("pool.bus")
            if self._rng.random() < self.loss:
                self.dropped += 1
                return
        self.delivered += 1
        handler(src, payload)

    # ------------------------------------------------------------------
    # Chaos hooks
    # ------------------------------------------------------------------
    def set_partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Split the bus: delivery only within a group.  Members not in
        any group land in one shared implicit group."""
        self._partition = {}
        for index, group in enumerate(groups):
            for member_id in group:
                self._partition[member_id] = index

    def heal_partition(self) -> None:
        self._partition = {}
