"""No-op observability primitives and the process-wide default.

Every :class:`~repro.sim.engine.Simulator` carries an ``obs`` attribute
so model components can write ``self.sim.obs.tracer`` / ``.metrics``
unconditionally.  When observability is off (the default) those point at
the null singletons below: ``enabled`` is False, every method is a
no-op, and hot paths guard their span bookkeeping behind
``tracer.enabled`` so a disabled tracer costs one attribute load.

This module must stay import-free of the rest of :mod:`repro` — the
engine imports it, and everything imports the engine.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class NullCounter:
    """Counter that discards increments."""

    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class NullGauge:
    """Gauge that discards writes and reads as 0."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def read(self) -> float:
        return 0.0


class NullHistogram:
    """Histogram that discards observations."""

    __slots__ = ()
    count = 0

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullTracer:
    """Tracer whose spans vanish; ``enabled`` is False so callers can
    skip building span arguments entirely."""

    enabled = False

    def bind(self, sim: Any, run: int = 0) -> None:
        pass

    def begin(self, name: str, track: str = "main", **args: Any) -> int:
        return -1

    def end(self, span_id: int, **args: Any) -> None:
        pass

    def annotate(self, span_id: int, **args: Any) -> None:
        pass

    def instant(self, name: str, track: str = "main", **args: Any) -> None:
        pass

    def elapsed(self, span_id: int) -> Optional[float]:
        return None


class NullMetrics:
    """Registry that hands out the null instruments."""

    enabled = False

    def counter(self, name: str, source: Any = None,
                attr: Optional[str] = None) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, buckets=None) -> NullHistogram:
        return NULL_HISTOGRAM

    def sample(self, now: float, run: int = 0) -> None:
        pass


NULL_TRACER = NullTracer()
NULL_METRICS = NullMetrics()


class NullObservability:
    """The ``sim.obs`` of an uninstrumented simulation."""

    enabled = False
    tracer = NULL_TRACER
    metrics = NULL_METRICS
    profiler = None

    def bind(self, sim: Any) -> None:
        pass


NULL_OBS = NullObservability()

#: Process-wide default picked up by Simulator() when no ``obs`` is
#: passed explicitly — how the CLI instruments experiment runners it
#: does not construct itself.
_default_obs: Any = NULL_OBS


def get_default_obs() -> Any:
    return _default_obs


def set_default_obs(obs: Optional[Any]) -> Any:
    """Install ``obs`` as the process default; returns the previous one
    so callers can restore it (None resets to the null singleton)."""
    global _default_obs
    previous = _default_obs
    _default_obs = obs if obs is not None else NULL_OBS
    return previous
