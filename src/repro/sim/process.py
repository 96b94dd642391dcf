"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator that ``yield``s delays (in
seconds).  After each yield the generator is resumed that many seconds of
simulation time later.  This gives traffic sources and service loops a
linear, readable control flow::

    def client(sim, nic):
        while True:
            nic.send(make_packet())
            yield sim.rng.stream("client").expovariate(rate)

    Process(sim, client(sim, nic))
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.engine import Event, Simulator

DelayGenerator = Generator[float, None, Any]


class PeriodicTimer:
    """Restart-safe scheduling for periodic daemons (every tick is a
    daemon event).

    Every periodic service in the controller (monitors, pollers,
    samplers, the health engine, the pool timers) shares one shape: a
    ``_tick`` that does work and reschedules itself.  The recurring bug
    in that shape is stop()/start() doubling the chain — a stop() that
    merely flips a flag leaves the pending tick alive, start() schedules
    a second one, and the old tick re-arms itself when it fires.  This
    helper owns the pending event so the bug class is impossible: stop()
    always cancels it.

    The timer deliberately schedules the *caller's own* callback (not a
    wrapper), so causal-provenance callback names — and with them the
    byte-identity of postmortem bundles — are unchanged by migrating a
    daemon onto it.  Usage::

        self._timer = PeriodicTimer(sim, interval, self._tick)

        def _tick(self):
            if not self._timer.running:
                return
            ... work ...
            self._timer.rearm()
    """

    __slots__ = ("sim", "interval", "callback", "running", "event")

    def __init__(self, sim: "Simulator", interval: float,
                 callback: Callable[[], None]):
        if interval <= 0:
            raise ValueError("timer interval must be positive")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.running = False
        #: The pending tick (None while stopped or mid-callback).
        self.event: Optional[Event] = None

    def start(self) -> None:
        """Arm the first tick; idempotent while already running."""
        if self.running:
            return
        self.running = True
        self.event = self.sim.schedule(self.interval, self.callback, daemon=True)

    def stop(self) -> None:
        """Disarm: cancel the pending tick (if any) and stop re-arming."""
        self.running = False
        if self.event is not None:
            self.event.cancel()
            self.event = None

    def rearm(self) -> None:
        """Schedule the next tick — called by the callback at the end of
        each tick; a no-op once stop() ran (the chain dies cleanly)."""
        if not self.running:
            return
        self.event = self.sim.schedule(self.interval, self.callback, daemon=True)


class Process:
    """Drive a delay-yielding generator on the simulator clock."""

    def __init__(self, sim: Simulator, generator: DelayGenerator, start_delay: float = 0.0):
        self.sim = sim
        self._generator = generator
        self._event: Optional[Event] = None
        self.alive = True
        self._event = sim.schedule(start_delay, self._resume)

    def _resume(self) -> None:
        if not self.alive:
            return
        try:
            delay = next(self._generator)
        except StopIteration:
            self.alive = False
            self._event = None
            return
        self._event = self.sim.schedule(delay, self._resume)

    def stop(self) -> None:
        """Terminate the process; the generator is not resumed again."""
        self.alive = False
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._generator.close()
