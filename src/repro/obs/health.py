"""The streaming health engine: windowed SLIs + alert rules, in sim time.

A :class:`HealthEngine` is a read-only daemon on top of the
:class:`~repro.obs.metrics.MetricsRegistry` the instrumented components
already write to.  Each tick it snapshots every counter and histogram,
computes a catalog of **SLIs** over sliding simulation-time windows
(rates from counter deltas, windowed quantiles from bucket-count
deltas, saturations against capacity gauges), feeds them through the
alert rules (:mod:`repro.obs.rules`), and appends any state transitions
to a deterministic alert timeline.

Determinism contract (locked in by ``tests/test_obs_health.py`` and the
scorecard tests): the engine never mutates model state, draws no
randomness, and schedules only daemon events — a run with health
enabled produces bit-identical model results to one without, and equal
seeds produce byte-identical alert timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, bucket_quantile
from repro.obs.rules import AlertRule, AlertState, builtin_rules
from repro.obs.rules import timeline_jsonl as _timeline_jsonl
from repro.sim.process import PeriodicTimer

#: SLI kinds (see :class:`SliSpec`).
KIND_RATE = "rate"
KIND_GAUGE = "gauge"
KIND_QUANTILE = "quantile"
KIND_SATURATION = "saturation"
KIND_RATIO = "ratio"


@dataclass(frozen=True)
class SliSpec:
    """Recipe for one streaming SLI.

    * ``rate``: sum over counters matching ``patterns`` of the windowed
      increment, divided by the window span (events/second).
    * ``gauge``: aggregate (``agg``: ``max`` or ``sum``) of the current
      values of gauges matching ``gauge_pattern``.
    * ``quantile``: windowed quantile ``q`` of histogram ``histogram``
      (bucket-count deltas over the window).
    * ``saturation``: per-entity rate over ``patterns`` divided by the
      entity's capacity gauge.  Each pattern carries exactly one ``*``;
      the captured wildcard fills ``capacity`` (a ``{}`` template).
      ``agg='max'`` reports the most saturated entity, ``agg='total'``
      the ratio of summed rates to summed capacities.
    * ``ratio``: windowed rate over ``patterns`` divided by the rate
      over ``denominator``; reads 1.0 while the denominator rate is
      below ``min_demand`` (no demand ⇒ healthy).
    """

    name: str
    kind: str
    window: float = 1.0
    patterns: Tuple[str, ...] = ()
    agg: str = "sum"
    gauge_pattern: str = ""
    histogram: str = ""
    q: float = 0.5
    capacity: str = ""
    denominator: Tuple[str, ...] = ()
    min_demand: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (KIND_RATE, KIND_GAUGE, KIND_QUANTILE,
                             KIND_SATURATION, KIND_RATIO):
            raise ValueError(f"SLI {self.name!r}: unknown kind {self.kind!r}")
        if self.window <= 0:
            raise ValueError(f"SLI {self.name!r}: window must be positive")


def default_slis() -> Tuple[SliSpec, ...]:
    """The SLI catalog of docs/observability.md#streaming-slis."""
    return (
        SliSpec("packet_in.latency_p50", KIND_QUANTILE, window=1.0,
                histogram="path.packet_in_latency_s", q=0.5),
        SliSpec("packet_in.latency_p99", KIND_QUANTILE, window=1.0,
                histogram="path.packet_in_latency_s", q=0.99),
        SliSpec("packet_in.drop_rate", KIND_RATE, window=1.0,
                patterns=("ofa.*.packet_in_drops",)),
        SliSpec("ofa.queue_depth", KIND_GAUGE,
                gauge_pattern="ofa.*.packet_in_queue", agg="max"),
        # Packet-In *arrivals* (emitted + queue-dropped) against the
        # OFA's generation capacity: >1 means the flash crowd is
        # offering more than the weakest OFA can punt (§3).
        SliSpec("ofa.saturation", KIND_SATURATION, window=1.0,
                patterns=("ofa.*.packet_ins", "ofa.*.packet_in_drops"),
                capacity="ofa.{}.packet_in_capacity", agg="max"),
        SliSpec("overlay.relay_rate", KIND_RATE, window=1.0,
                patterns=("overlay.relay.*",)),
        SliSpec("overlay.utilization", KIND_SATURATION, window=1.0,
                patterns=("overlay.relay.*",),
                capacity="ofa.{}.packet_in_capacity", agg="total"),
        SliSpec("channel.error_rate", KIND_RATE, window=0.75,
                patterns=("channel.*.to_switch_dropped",
                          "channel.*.to_controller_dropped",
                          "channel.*.to_switch_dead",
                          "channel.*.to_controller_dead")),
        SliSpec("heartbeat.miss_rate", KIND_RATE, window=1.0,
                patterns=("heartbeat.misses",)),
        SliSpec("install.retry_rate", KIND_RATE, window=1.0,
                patterns=("reliable.retries",)),
        SliSpec("controller.packet_in_rate", KIND_RATE, window=0.5,
                patterns=("controller.packet_ins",)),
        SliSpec("controller.delivery_ratio", KIND_RATIO, window=0.5,
                patterns=("controller.packet_ins",),
                denominator=("ofa.*.packet_ins",), min_demand=10.0),
        # Control-channel bytes the flow-measurement machinery itself
        # consumes (stats requests + replies + sample exports) — the
        # overhead axis of the sampled-telemetry scorecard.
        SliSpec("monitoring_bytes_rate", KIND_RATE, window=1.0,
                patterns=("stats.bytes.*",)),
        # Seconds since the flow estimator last heard from its
        # worst-served vSwitch.  The gauges exist only in sample/hybrid
        # stats modes, so under full polling this reads 0.0 and the
        # estimator-starvation alert is inert.
        SliSpec("estimate_staleness", KIND_GAUGE,
                gauge_pattern="telemetry.*.estimate_staleness", agg="max"),
    )


def pool_slis() -> Tuple[SliSpec, ...]:
    """Controller-pool SLIs (docs/cluster.md) — appended to
    :func:`default_slis` by pool scenarios; never part of the default
    catalog, so single-controller health output is unchanged."""
    return (
        # Packet-Ins arriving at the pool frontend while their switch
        # has no live acked master (the failover pain signal).
        SliSpec("pool.orphan_rate", KIND_RATE, window=1.0,
                patterns=("pool.orphaned",)),
        # Aggregate Packet-In rate across the whole pool — the
        # autoscaler's input, exposed for the flash-crowd rule.
        SliSpec("pool.packet_in_rate", KIND_RATE, window=0.5,
                patterns=("pool.packet_ins",)),
        SliSpec("pool.members_live", KIND_GAUGE,
                gauge_pattern="pool.members_live", agg="max"),
        # Tail of the crash -> new-master-acked window.
        SliSpec("pool.failover_p95", KIND_QUANTILE, window=5.0,
                histogram="pool.failover_window_s", q=0.95),
    )


@dataclass
class _Snapshot:
    t: float
    counters: Dict[str, int] = field(default_factory=dict)
    hist_counts: Dict[str, Tuple[int, ...]] = field(default_factory=dict)


def _wildcard_capture(pattern: str, name: str) -> Optional[str]:
    """The text matched by the single ``*`` in ``pattern``, or None."""
    prefix, star, suffix = pattern.partition("*")
    if not star:
        return name if name == pattern else None
    if (name.startswith(prefix) and name.endswith(suffix)
            and len(name) >= len(prefix) + len(suffix)):
        return name[len(prefix):len(name) - len(suffix)] or None
    return None


class HealthEngine:
    """Streaming SLI computation + alert evaluation on a sim-time tick.

    Read-only over ``registry``; schedules only daemon events (an
    un-horizoned run still stops when its real work drains).  ``series``
    maps SLI name to ``[(t, value), ...]``; ``timeline`` is the ordered
    list of alert transitions (:mod:`repro.obs.rules` record format).
    """

    def __init__(
        self,
        sim: Any,
        registry: MetricsRegistry,
        rules: Optional[Sequence[AlertRule]] = None,
        slis: Optional[Sequence[SliSpec]] = None,
        interval: float = 0.25,
    ):
        if interval <= 0:
            raise ValueError("health interval must be positive")
        if not getattr(registry, "enabled", False):
            raise ValueError("HealthEngine needs an enabled MetricsRegistry")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.slis: Tuple[SliSpec, ...] = tuple(
            slis if slis is not None else default_slis())
        self.rules: List[AlertRule] = list(
            rules if rules is not None else builtin_rules())
        sli_names = {spec.name for spec in self.slis}
        for rule in self.rules:
            if rule.sli not in sli_names:
                raise ValueError(
                    f"rule {rule.name!r} references unknown SLI {rule.sli!r}")
        self.states: Dict[str, AlertState] = {
            rule.name: AlertState(rule) for rule in self.rules}
        self.series: Dict[str, List[Tuple[float, float]]] = {
            spec.name: [] for spec in self.slis}
        self.timeline: List[Dict[str, object]] = []
        #: Called with each appended timeline record (after the append);
        #: how the postmortem collector sees firings the moment they
        #: happen.  Must be read-only over the model.
        self.on_transition: Optional[Any] = None
        self.ticks = 0
        # Restart-safe tick chain (sim.process.PeriodicTimer owns the
        # pending event, so stop()/start() can never double the chain).
        self._timer = PeriodicTimer(sim, interval, self._tick)
        self._history: List[_Snapshot] = []
        self._max_window = max((s.window for s in self.slis), default=1.0)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._timer.running:
            return
        self._history = [self._snapshot()]
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    # -- tick -----------------------------------------------------------
    def _snapshot(self) -> _Snapshot:
        registry = self.registry
        return _Snapshot(
            t=self.sim.now,
            counters={name: counter.value
                      for name, counter in registry.counters.items()},
            hist_counts={name: tuple(histogram.counts)
                         for name, histogram in registry.histograms.items()},
        )

    def _tick(self) -> None:
        if not self._timer.running:
            return
        now = self.sim.now
        snap = self._snapshot()
        self._history.append(snap)
        values = self.compute(now, snap)
        for name, value in values.items():
            self.series[name].append((round(now, 9), round(value, 9)))
        for state in self.states.values():
            value = values.get(state.rule.sli, 0.0)
            transitions = state.evaluate(now, value)
            self.timeline.extend(transitions)
            if self.on_transition is not None:
                for record in transitions:
                    self.on_transition(record)
        self.ticks += 1
        self._trim(now)
        self._timer.rearm()

    def _trim(self, now: float) -> None:
        horizon = now - self._max_window - self.interval
        keep = 0
        while (keep + 1 < len(self._history)
               and self._history[keep + 1].t <= horizon):
            keep += 1
        if keep:
            del self._history[:keep]

    def _baseline(self, now: float, window: float) -> _Snapshot:
        """Latest snapshot at or before ``now - window`` (the earliest
        one early in the run, so short histories use the actual span)."""
        target = now - window + 1e-9
        best = self._history[0]
        for snap in self._history:
            if snap.t <= target:
                best = snap
            else:
                break
        return best

    # -- SLI computation ------------------------------------------------
    def compute(self, now: float,
                snap: Optional[_Snapshot] = None) -> Dict[str, float]:
        """Every SLI's value at ``now`` (insertion order preserved)."""
        if snap is None:
            snap = self._snapshot()
        values: Dict[str, float] = {}
        for spec in self.slis:
            values[spec.name] = self._compute_one(spec, now, snap)
        return values

    def _compute_one(self, spec: SliSpec, now: float, snap: _Snapshot) -> float:
        if spec.kind == KIND_GAUGE:
            matched = [gauge.read()
                       for name, gauge in sorted(self.registry.gauges.items())
                       if fnmatchcase(name, spec.gauge_pattern)]
            if not matched:
                return 0.0
            return max(matched) if spec.agg == "max" else sum(matched)

        base = self._baseline(now, spec.window)
        span = now - base.t
        if span <= 0:
            return 1.0 if spec.kind == KIND_RATIO else 0.0

        if spec.kind == KIND_RATE:
            delta = self._delta(spec.patterns, snap, base)
            return delta / span

        if spec.kind == KIND_QUANTILE:
            histogram = self.registry.histograms.get(spec.histogram)
            if histogram is None:
                return 0.0
            cur = snap.hist_counts.get(spec.histogram)
            old = base.hist_counts.get(spec.histogram)
            if cur is None:
                return 0.0
            if old is None or len(old) != len(cur):
                old = (0,) * len(cur)
            deltas = [c - o for c, o in zip(cur, old)]
            return bucket_quantile(histogram.buckets, deltas, spec.q,
                                   lo=histogram.min, hi=histogram.max)

        if spec.kind == KIND_SATURATION:
            rates: Dict[str, float] = {}
            for pattern in spec.patterns:
                for name in snap.counters:
                    entity = _wildcard_capture(pattern, name)
                    if entity is None:
                        continue
                    delta = snap.counters[name] - base.counters.get(name, 0)
                    rates[entity] = rates.get(entity, 0.0) + delta / span
            ratios: List[float] = []
            total_rate = total_capacity = 0.0
            for entity in sorted(rates):
                gauge = self.registry.gauges.get(spec.capacity.format(entity))
                capacity = gauge.read() if gauge is not None else 0.0
                if capacity <= 0:
                    continue
                ratios.append(rates[entity] / capacity)
                total_rate += rates[entity]
                total_capacity += capacity
            if spec.agg == "total":
                return total_rate / total_capacity if total_capacity else 0.0
            return max(ratios) if ratios else 0.0

        if spec.kind == KIND_RATIO:
            demand = self._delta(spec.denominator, snap, base) / span
            if demand < spec.min_demand:
                return 1.0
            return (self._delta(spec.patterns, snap, base) / span) / demand

        raise AssertionError(spec.kind)  # unreachable; __post_init__ guards

    def _delta(self, patterns: Tuple[str, ...], snap: _Snapshot,
               base: _Snapshot) -> float:
        total = 0.0
        for pattern in patterns:
            if "*" in pattern or "?" in pattern or "[" in pattern:
                for name in snap.counters:
                    if fnmatchcase(name, pattern):
                        total += snap.counters[name] - base.counters.get(name, 0)
            else:
                total += (snap.counters.get(pattern, 0)
                          - base.counters.get(pattern, 0))
        return total

    # -- results --------------------------------------------------------
    def timeline_jsonl(self) -> str:
        """The alert timeline as JSON lines — byte-identical for equal
        seeds (same contract as the fault log)."""
        return _timeline_jsonl(self.timeline)
