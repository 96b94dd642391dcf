"""Rate-limited servers and arrival-rate estimation.

:class:`RateLimitedServer` models the OFA's finite-capacity stages —
its Packet-In generator and its rule-insertion engine, in physical
switches and vSwitch agents alike (the controller's rate R is
``core.flow_manager.InstallScheduler``).  It is a single-server FIFO
queue with deterministic service time ``1 / rate`` and a bounded buffer;
arrivals to a full buffer are dropped (and counted), which is exactly
the behaviour observed in the paper's Figs. 3/4/9.

:class:`RateEstimator` is the arrival-rate estimator used inside the OFA
model (insertion-rate dependent behaviour, Figs. 9/10) and by the Scotch
congestion monitor (Packet-In rate per switch, §4.2): a sliding window of
recent event timestamps.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.sim.engine import Simulator
from repro.sim.queues import BoundedQueue


class RateLimitedServer:
    """Single-server FIFO with service rate ``rate`` items/second.

    ``handler(item)`` is invoked when an item completes service; an
    item arriving to a full queue is dropped and counted.
    """

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        queue_capacity: Optional[int],
        handler: Callable[[Any], None],
        name: str = "server",
    ):
        if rate <= 0:
            raise ValueError("service rate must be positive")
        self.sim = sim
        self.rate = rate
        self.handler = handler
        self.name = name
        self.queue = BoundedQueue(queue_capacity, name=f"{name}.queue")
        self.busy = False
        self.served = 0
        self.dropped = 0

    @property
    def service_time(self) -> float:
        return 1.0 / self.rate

    def set_rate(self, rate: float) -> None:
        """Change the service rate; takes effect for the next service."""
        if rate <= 0:
            raise ValueError("service rate must be positive")
        self.rate = rate

    def submit(self, item: Any) -> bool:
        """Offer ``item``; returns False if it was dropped (queue full)."""
        if not self.queue.offer(item):
            self.dropped += 1
            return False
        if not self.busy:
            self._begin_service()
        return True

    def backlog(self) -> int:
        return len(self.queue)

    def _begin_service(self) -> None:
        self.busy = True
        item = self.queue.pop()
        self.sim.schedule(self.service_time, self._complete, item)

    def _complete(self, item: Any) -> None:
        self.served += 1
        # Hand the item to the handler *before* starting the next service
        # so downstream state reflects this completion at the same instant.
        self.handler(item)
        if self.queue:
            self._begin_service()
        else:
            self.busy = False


class RateEstimator:
    """Sliding-window arrival-rate estimator.

    Keeps the last ``window_events`` event times (optionally age-bounded
    by ``window_seconds``) and reports ``(n - 1) / span``.  Returns 0
    until two events have been seen.
    """

    def __init__(self, window_events: int = 32, window_seconds: Optional[float] = None):
        if window_events < 2:
            raise ValueError("window must hold at least two events")
        self._times: Deque[float] = deque(maxlen=window_events)
        self.window_seconds = window_seconds

    def observe(self, now: float) -> None:
        self._times.append(now)

    @property
    def oldest(self) -> float:
        """The earliest time still in the window (inf when empty)."""
        return self._times[0] if self._times else math.inf

    def rate(self, now: Optional[float] = None) -> float:
        times = self._times
        if self.window_seconds is not None and now is not None:
            cutoff = now - self.window_seconds
            while times and times[0] < cutoff:
                times.popleft()
        if len(times) < 2:
            return 0.0
        span = times[-1] - times[0]
        if span <= 0:
            # A burst at one instant: treat as very fast, bounded for sanity.
            return float(len(times)) * 1e6
        return (len(times) - 1) / span
