"""`repro.obs` — first-class observability for the simulator.

Four pieces (see docs/observability.md for the guided tour):

* :class:`~repro.obs.tracer.Tracer` — simulation-time span/event
  tracing of the full control path, with JSONL and Chrome
  ``trace_event`` export;
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges
  and fixed-bucket histograms, plus a daemon sampler for time series;
* :class:`~repro.obs.profiler.EngineProfiler` — engine hooks giving
  per-callback wall-clock accounting and heap-depth stats;
* :mod:`~repro.obs.manifest` — reproducibility manifests.

:class:`Observability` bundles them and binds to every
:class:`~repro.sim.engine.Simulator` built while it is active — either
passed explicitly (``Simulator(seed, obs=obs)``) or installed as the
process default (:func:`set_default_obs` / the ``observed`` context
manager), which is how the CLI instruments experiment runners that
construct their own simulators.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Optional

from repro.obs.base import (
    NULL_METRICS,
    NULL_OBS,
    NULL_TRACER,
    NullObservability,
    get_default_obs,
    set_default_obs,
)
from repro.obs.health import HealthEngine, SliSpec, default_slis
from repro.obs.metrics import MetricsRegistry, MetricsSampler
from repro.obs.profiler import EngineProfiler
from repro.obs.rules import AlertRule, builtin_rules, parse_rule, parse_rules
from repro.obs.tracer import Tracer

__all__ = [
    "Observability",
    "NullObservability",
    "NULL_OBS",
    "Tracer",
    "MetricsRegistry",
    "MetricsSampler",
    "EngineProfiler",
    "HealthEngine",
    "SliSpec",
    "default_slis",
    "AlertRule",
    "builtin_rules",
    "parse_rule",
    "parse_rules",
    "get_default_obs",
    "set_default_obs",
    "observed",
]


class Observability:
    """A tracer + metrics registry + optional profiler, bound together.

    ``sample_interval`` (simulation seconds) starts a daemon
    :class:`MetricsSampler` on every simulator bound while metrics are
    enabled; None disables sampling (instruments still record, only the
    time series is absent — and the simulation's event calendar is left
    untouched, which the determinism tests rely on).

    A trace is always causal: every simulator bound while tracing is on
    records causal provenance, so trace records carry span and event
    ids (docs/observability.md#causality--flight-recorder).  With
    tracing off, provenance stays off.
    """

    enabled = True

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        profile: bool = False,
        sample_interval: Optional[float] = None,
    ):
        self.tracer = Tracer() if trace else NULL_TRACER
        self.metrics = MetricsRegistry() if metrics else NULL_METRICS
        self.profiler = EngineProfiler() if profile else None
        self.sample_interval = sample_interval
        self.samplers = []
        #: How many simulators have bound (the tracer's run index).
        self.runs = 0

    def bind(self, sim: Any) -> None:
        """Called by ``Simulator.__init__``; attaches every enabled
        instrument to the new simulator.  Counters fold the previous
        simulators' sources into their bases first, so a sweep exports
        running totals."""
        run = self.runs
        self.runs += 1
        if self.metrics.enabled:
            self.metrics.fold()
        if self.tracer.enabled:
            self.tracer.bind(sim, run=run)
            sim.enable_provenance(run=run)
        if self.profiler is not None:
            self.profiler.attach(sim)
        if self.metrics.enabled and self.sample_interval:
            sampler = MetricsSampler(sim, self.metrics, self.sample_interval,
                                     run=run)
            self.samplers.append(sampler)
            sampler.start()


@contextmanager
def observed(obs: Observability):
    """Make ``obs`` the process-default observability for the duration::

        with observed(Observability()) as obs:
            run_experiment()
        obs.tracer.export_jsonl("run.trace.jsonl")
    """
    previous = set_default_obs(obs)
    try:
        yield obs
    finally:
        set_default_obs(previous)
