"""Barrier-acknowledged control-state installation with bounded retries.

The base protocol gives the controller no delivery guarantee for a
FlowMod/GroupMod: on a healthy channel the TCP connection provides one,
but under the chaos layer's faults (message loss, flaps, partitions,
vSwitch restarts — docs/robustness.md) critical state can silently fail
to land, wedging the overlay in a half-configured shape.

:class:`ReliableSender` closes the loop with the standard OpenFlow
idiom: send the batch, then a BarrierRequest; the BarrierReply proves
the switch processed everything before the barrier.  No reply within a
timeout ⇒ re-send the whole batch (all messages here are idempotent:
GroupMod bucket refreshes and FlowMod ADDs that replace an identical
match+priority entry) with capped exponential backoff, up to
``reliable_install_max_retries`` attempts, then abandon and count it.

Sends can be *keyed*: a new send with the same key supersedes a
still-retrying older one, so a burst of group refreshes during a flap
converges on the newest bucket set instead of replaying stale ones.
:meth:`supersede` cancels a keyed batch without a replacement — the
resync path uses it to kill pre-outage batches whose retries would
otherwise land *after* the fresh state push and resurrect stale
entries.

The sender itself can be stopped and restarted (controller outage,
pool-member handoff): :meth:`stop` freezes every in-flight batch —
retry timers cancelled, attempt counts preserved — while late barrier
replies still ack normally; :meth:`start` replays the surviving
batches (idempotent re-install) and resumes their backoff schedule
where it left off.

Caveat: a barrier proves *processing*, not table commitment — a
FlowMod can still be lost to the OFA's probabilistic insertion model
(Fig. 9).  The layer is a channel-level guarantee; insertion loss is
handled where it always was (activation re-sends, table-miss retry).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence

from repro.openflow.messages import BarrierReply, BarrierRequest, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import OpenFlowController
    from repro.core.config import ScotchConfig
    from repro.sim.engine import Event, Simulator


class _PendingSend:
    """One acknowledged batch in flight (possibly being retried)."""

    __slots__ = ("dpid", "messages", "key", "on_ack", "on_abandon",
                 "attempts", "timer", "superseded", "barrier_xid")

    def __init__(self, dpid: str, messages: List[Message],
                 key: Optional[Hashable], on_ack: Optional[Callable[[], None]],
                 on_abandon: Optional[Callable[[], None]]):
        self.dpid = dpid
        self.messages = messages
        self.key = key
        self.on_ack = on_ack
        self.on_abandon = on_abandon
        self.attempts = 0
        self.timer: Optional["Event"] = None
        self.superseded = False
        self.barrier_xid: Optional[int] = None


class ReliableSender:
    """Barrier-acked batch sender with capped-exponential-backoff retry."""

    def __init__(self, sim: "Simulator", controller: "OpenFlowController",
                 config: "ScotchConfig"):
        self.sim = sim
        self.controller = controller
        self.config = config
        #: barrier xid -> in-flight batch.
        self._await_ack: Dict[int, _PendingSend] = {}
        #: key -> latest batch for that key (for supersession).
        self._by_key: Dict[Hashable, _PendingSend] = {}
        #: Batches submitted or frozen while stopped, replayed on start().
        self._paused: List[_PendingSend] = []
        self._running = True
        self.sent = 0
        self.acked = 0
        self.retries = 0
        self.abandoned = 0
        self.superseded = 0
        metrics = sim.obs.metrics
        metrics.counter("reliable.retries", self, "retries")
        metrics.counter("reliable.acked", self, "acked")
        metrics.counter("reliable.abandoned", self, "abandoned")

    # ------------------------------------------------------------------
    def send(
        self,
        dpid: str,
        messages: Sequence[Message],
        key: Optional[Hashable] = None,
        on_ack: Optional[Callable[[], None]] = None,
        on_abandon: Optional[Callable[[], None]] = None,
    ) -> None:
        """Send ``messages`` to ``dpid`` followed by a barrier; retry the
        batch until the barrier is acknowledged or retries run out."""
        entry = _PendingSend(dpid, list(messages), key, on_ack, on_abandon)
        if key is not None:
            previous = self._by_key.get(key)
            if previous is not None and not previous.superseded:
                previous.superseded = True
                self.superseded += 1
                if previous.timer is not None:
                    previous.timer.cancel()
                if previous.barrier_xid is not None:
                    self._await_ack.pop(previous.barrier_xid, None)
            self._by_key[key] = entry
        self.sent += 1
        if not self._running:
            self._paused.append(entry)
            return
        self._transmit(entry)

    def supersede(self, key: Hashable) -> bool:
        """Cancel the in-flight batch for ``key`` without replacing it.

        Returns True if a live batch was cancelled.  Used by resync: the
        full state re-push that follows re-claims the key with current
        state, so the stale batch's pending retries must die first."""
        entry = self._by_key.pop(key, None)
        if entry is None or entry.superseded:
            return False
        entry.superseded = True
        self.superseded += 1
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        if entry.barrier_xid is not None:
            self._await_ack.pop(entry.barrier_xid, None)
        return True

    def supersede_all(self) -> int:
        """Cancel every in-flight keyed batch (resync entry point)."""
        count = 0
        for key in list(self._by_key):
            if self.supersede(key):
                count += 1
        return count

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Freeze the sender: cancel retry timers, keep in-flight state.

        Attempt counts survive, so a batch resumes its backoff schedule
        on :meth:`start` rather than getting a fresh retry budget.  Late
        barrier replies arriving while stopped still ack normally."""
        if not self._running:
            return
        self._running = False
        for entry in self._await_ack.values():
            if entry.timer is not None:
                entry.timer.cancel()
                entry.timer = None

    def start(self) -> None:
        """Resume: replay every surviving batch (idempotent re-install).

        Batches whose retry budget was already exhausted when the stop
        hit are abandoned instead of replayed, so the invariant that
        attempts never exceed ``max_retries + 1`` holds across
        stop()/start() cycles."""
        if self._running:
            return
        self._running = True
        frozen = [e for e in self._await_ack.values() if not e.superseded]
        self._await_ack.clear()
        replay = frozen + [e for e in self._paused if not e.superseded]
        self._paused = []
        for entry in replay:
            entry.barrier_xid = None
            if entry.attempts > self.config.reliable_install_max_retries:
                self.abandoned += 1
                self._forget_key(entry)
                if entry.on_abandon is not None:
                    entry.on_abandon()
                continue
            self._transmit(entry)

    def pending(self) -> int:
        """Batches awaiting acknowledgement (retry timers live)."""
        return sum(1 for e in self._await_ack.values() if not e.superseded)

    def max_attempts_in_flight(self) -> int:
        """Highest attempt count among unacked batches — the invariant
        checker asserts this stays within the configured retry budget."""
        live = [e.attempts for e in self._await_ack.values() if not e.superseded]
        return max(live, default=0)

    # ------------------------------------------------------------------
    def _transmit(self, entry: _PendingSend) -> None:
        if entry.superseded:
            return
        if not self._running:
            self._paused.append(entry)
            return
        handle = self.controller.datapaths.get(entry.dpid)
        if handle is None:
            return
        entry.attempts += 1
        for message in entry.messages:
            handle.send(message)
        barrier = BarrierRequest()
        self._await_ack[barrier.xid] = entry
        entry.barrier_xid = barrier.xid
        handle.send(barrier)
        timeout = min(
            self.config.reliable_install_timeout * (2 ** (entry.attempts - 1)),
            self.config.reliable_install_timeout_cap,
        )
        entry.timer = self.sim.schedule(timeout, self._timeout, barrier.xid, daemon=True)

    def _timeout(self, barrier_xid: int) -> None:
        entry = self._await_ack.pop(barrier_xid, None)
        if entry is None or entry.superseded:
            return
        if entry.attempts > self.config.reliable_install_max_retries:
            self.abandoned += 1
            self._forget_key(entry)
            if entry.on_abandon is not None:
                entry.on_abandon()
            return
        self.retries += 1
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.instant("reliable.retry", track="reliable",
                           switch=entry.dpid, attempt=entry.attempts)
        self._transmit(entry)

    def barrier_reply(self, dpid: str, message: BarrierReply) -> None:
        entry = self._await_ack.pop(message.request_xid, None)
        if entry is None:
            return
        if entry.timer is not None:
            entry.timer.cancel()
        if entry.superseded:
            return
        self.acked += 1
        self._forget_key(entry)
        if entry.on_ack is not None:
            entry.on_ack()

    def _forget_key(self, entry: _PendingSend) -> None:
        if entry.key is not None and self._by_key.get(entry.key) is entry:
            del self._by_key[entry.key]
