"""Simple time series collection."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTimer


class TimeSeries:
    """(time, value) samples with a few reductions."""

    def __init__(self, name: str = ""):
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def add(self, time: float, value: float) -> None:
        self.points.append((time, value))

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def times(self) -> List[float]:
        return [t for t, _ in self.points]

    def last(self, default: float = 0.0) -> float:
        return self.points[-1][1] if self.points else default

    def max(self, default: float = 0.0) -> float:
        return max(self.values(), default=default)

    def mean_over(self, start: float, end: float) -> float:
        window = [v for t, v in self.points if start <= t < end]
        return sum(window) / len(window) if window else 0.0

    def __len__(self) -> int:
        return len(self.points)


def sample_periodically(
    sim: Simulator,
    series: TimeSeries,
    probe: Callable[[], float],
    interval: float,
    until: Optional[float] = None,
) -> PeriodicTimer:
    """Sample ``probe()`` into ``series`` every ``interval`` seconds (the
    last sample no later than ``until``); ``stop()`` the returned timer
    to end the sampling early."""

    def _tick() -> None:
        series.add(sim.now, probe())
        if until is None or sim.now + interval <= until:
            timer.rearm()

    # Foreground events, like the chain this replaces: the samples keep
    # an otherwise idle run alive until ``until``.
    timer = PeriodicTimer(sim, interval, _tick, daemon=False)
    timer.start()
    return timer
