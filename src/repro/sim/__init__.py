"""Discrete-event simulation engine.

This package is the substrate for the whole reproduction: a deterministic
event loop (:mod:`repro.sim.engine`), generator-based processes
(:mod:`repro.sim.process`), bounded and round-robin queues
(:mod:`repro.sim.queues`), rate-limited servers and the arrival-rate
estimator (:mod:`repro.sim.ratelimit`), and reproducible
named random streams (:mod:`repro.sim.rng`).

Determinism contract: given the same seed and the same sequence of
schedule calls, a simulation replays identically.  Events that share a
timestamp fire in scheduling order (FIFO tie-break).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.process import Process
from repro.sim.queues import BoundedQueue, QueueFullError, RoundRobinScheduler
from repro.sim.ratelimit import RateLimitedServer
from repro.sim.rng import RngRegistry

__all__ = [
    "BoundedQueue",
    "Event",
    "Process",
    "QueueFullError",
    "RateLimitedServer",
    "RngRegistry",
    "RoundRobinScheduler",
    "Simulator",
]
