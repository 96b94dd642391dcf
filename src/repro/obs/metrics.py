"""Named counters, gauges and fixed-bucket histograms.

Components register instruments once (usually in their constructor); a
counter reads the attribute its component already keeps, so no fact is
tallied twice.  A :class:`MetricsSampler` daemon snapshots every
gauge and counter on a configurable simulation-time tick, yielding the
time series (OFA queue depth, per-vSwitch relay rate, flow-table
occupancy, ...) that end-of-run aggregates cannot show.

All values are simulation-derived — counts and sim-time latencies —
so a metrics file is as reproducible as the run that produced it.
Export is JSONL, matching the tracer's format family:

* ``{"type": "sample", "run": R, "t": T, "name": N, "value": V}``
* ``{"type": "counter", "name": N, "value": V}``    (final)
* ``{"type": "gauge", "name": N, "value": V}``      (final)
* ``{"type": "histogram", "name": N, "buckets": [...], "counts": [...],
    "count": C, "sum": S, "min": m, "max": M}``
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.obs.report import canonical_json

#: Default histogram buckets for control-path latencies, seconds
#: (100 µs .. 10 s, roughly logarithmic).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for small integer distributions (queue depths, batch
#: sizes).
COUNT_BUCKETS: Tuple[float, ...] = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


class Counter:
    """Monotonic event counter: a folded ``base`` plus the attributes it
    reads (``sources``, registered through :meth:`MetricsRegistry.counter`
    so a fact a component tallies is counted once).  :meth:`inc` is for
    counters created lazily per event, which no component keeps."""

    __slots__ = ("name", "base", "sources")

    def __init__(self, name: str):
        self.name = name
        self.base = 0
        self.sources: List[Tuple[Any, str]] = []

    def inc(self, n: int = 1) -> None:
        self.base += n

    @property
    def value(self) -> int:
        value = self.base
        for source, attr in self.sources:
            value += getattr(source, attr)
        return value

    def read_from(self, source: Any, attr: str) -> None:
        """Add ``source.attr`` to the sum (once per object)."""
        if not any(s is source and a == attr for s, a in self.sources):
            self.sources.append((source, attr))

    def fold(self) -> None:
        self.base = self.value
        self.sources = []


class Gauge:
    """A point-in-time value: either set explicitly or read through a
    callback (``fn``) at sample time — callbacks let components expose
    live state (queue backlogs, table sizes) without a write per event."""

    __slots__ = ("name", "fn", "_value")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def read(self) -> float:
        return float(self.fn()) if self.fn is not None else self._value


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` counts observations
    ``<= buckets[i]``; the implicit last bucket is +inf."""

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS_S):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty sequence")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket counts (upper bucket bound),
        clamped to ``[min, max]``; ``q=0`` / ``q=1`` are exact."""
        if not self.count:
            return 0.0
        return bucket_quantile(self.buckets, self.counts, q,
                               lo=self.min, hi=self.max)


def bucket_quantile(
    buckets: Sequence[float],
    counts: Sequence[int],
    q: float,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> float:
    """Quantile of a bucketed distribution (upper bucket bound).

    ``counts`` may carry the implicit +inf overflow bucket as its last
    element (``len(counts) == len(buckets) + 1``).  When the observed
    extremes are known, the result is clamped into ``[lo, hi]`` so a low
    quantile cannot report a bucket bound below the smallest observation
    (and ``q=0`` / ``q=1`` return them exactly).  Shared by
    :meth:`Histogram.quantile`, the metrics-file inspector and the
    health engine's windowed quantiles.
    """
    total = sum(counts)
    if not total:
        return 0.0
    if q <= 0.0 and lo is not None:
        return lo
    if q >= 1.0 and hi is not None:
        return hi
    target = q * total
    seen = 0
    result = buckets[-1] if hi is None else hi
    for index, count in enumerate(counts):
        seen += count
        if seen >= target:
            if index < len(buckets):
                result = buckets[index]
            break
    if lo is not None and result < lo:
        result = lo
    if hi is not None and result > hi:
        result = hi
    return result


# Exact statistics of raw samples (setup latencies, FCTs, delays) — the
# counterpart of ``bucket_quantile`` where every observation was kept.
def mean(values: Iterable[float]) -> float:
    data = list(values)
    if not data:
        raise ValueError("mean of empty sequence")
    return sum(data) / len(data)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, pct in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= pct <= 100:
        raise ValueError("pct must be in [0, 100]")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (pct / 100) * (len(data) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return data[low]
    frac = rank - low
    return data[low] * (1 - frac) + data[high] * frac


def cdf_points(values: Sequence[float], points: int = 50) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs suitable for plotting a CDF."""
    if not values:
        return []
    data = sorted(values)
    n = len(data)
    step = max(1, n // points)
    out = [(data[i], (i + 1) / n) for i in range(0, n, step)]
    if out[-1][0] != data[-1]:
        out.append((data[-1], 1.0))
    return out


class MetricsRegistry:
    """Name-keyed instrument registry plus the sampled time series."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: (run, sim time, name, value) gauge/counter snapshots.
        self.samples: List[Tuple[int, float, str, float]] = []

    # -- registration (get-or-create; a gauge re-registered with a new
    # callback rebinds, so rebuilt deployments keep their names) --------
    def counter(self, name: str, source: Any = None,
                attr: Optional[str] = None) -> Counter:
        """Get or create ``name``; with ``source``, the counter also
        reads ``source.attr`` (the tally the component keeps)."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        if source is not None:
            counter.read_from(source, attr)
        return counter

    def fold(self) -> None:
        """Fold every counter's sources into its base — called when the
        next simulator binds, so totals run on across a sweep without
        the registry keeping earlier deployments alive."""
        for counter in self.counters.values():
            counter.fold()

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name, fn)
        elif fn is not None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str,
                  buckets: Sequence[float] = LATENCY_BUCKETS_S) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, buckets)
        return histogram

    # -- sampling -------------------------------------------------------
    def sample(self, now: float, run: int = 0) -> None:
        """Snapshot every gauge and counter at simulation time ``now``
        (what the daemon sampler calls each tick)."""
        for name in sorted(self.gauges):
            self.samples.append((run, now, name, self.gauges[name].read()))
        for name in sorted(self.counters):
            self.samples.append((run, now, name, float(self.counters[name].value)))

    # -- export ---------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """Write samples then final instrument states (after the schema
        header); returns the payload line count."""
        from repro.obs.artifacts import METRICS, write_jsonl

        records: List[Dict[str, Any]] = [
            {"type": "sample", "run": run, "t": t, "name": name, "value": value}
            for run, t, name, value in self.samples]
        records += [{"type": "counter", "name": name,
                     "value": self.counters[name].value}
                    for name in sorted(self.counters)]
        records += [{"type": "gauge", "name": name,
                     "value": self.gauges[name].read()}
                    for name in sorted(self.gauges)]
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            records.append({
                "type": "histogram", "name": name,
                "buckets": list(histogram.buckets),
                "counts": list(histogram.counts),
                "count": histogram.count, "sum": histogram.sum,
                "min": histogram.min, "max": histogram.max,
            })
        write_jsonl(path, METRICS, map(canonical_json, records))
        return len(records)

    def to_prometheus(self) -> str:
        """Final instrument states in the Prometheus text exposition
        format (one flat time series per instrument: dots become
        underscores under a ``scotch_`` prefix, counters gain the
        ``_total`` suffix, histograms emit cumulative ``le`` buckets)."""
        lines: List[str] = []
        for name in sorted(self.counters):
            metric = prometheus_name(name) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prometheus_value(self.counters[name].value)}")
        for name in sorted(self.gauges):
            metric = prometheus_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prometheus_value(self.gauges[name].read())}")
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            metric = prometheus_name(name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(histogram.buckets, histogram.counts):
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{_prometheus_value(bound)}"}} '
                             f"{cumulative}")
            lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{metric}_sum {_prometheus_value(histogram.sum)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def export_prometheus(self, path: str) -> int:
        """Write :meth:`to_prometheus` to ``path``; returns line count."""
        text = self.to_prometheus()
        with open(path, "w") as handle:
            handle.write(text)
        return text.count("\n")


def prometheus_name(name: str) -> str:
    """Sanitize a registry name into a Prometheus metric name."""
    sanitized = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "scotch_" + sanitized


def _prometheus_value(value: Any) -> str:
    """Render a sample value: integral floats print as integers."""
    if value is None:
        return "NaN"
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class MetricsSampler:
    """Daemon process snapshotting a registry on a sim-time tick.

    Scheduled as daemon events, so an un-horizoned run still stops when
    its real work drains.  One sampler is created per bound simulator by
    :meth:`repro.obs.Observability.bind`.
    """

    def __init__(self, sim: Any, registry: MetricsRegistry,
                 interval: float, run: int = 0):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.run = run
        self.ticks = 0
        # Restart-safe tick chain (sim.process.PeriodicTimer owns the
        # pending event, so stop()/start() can never double the chain).
        from repro.sim.process import PeriodicTimer

        self._timer = PeriodicTimer(sim, interval, self._tick)

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def _tick(self) -> None:
        if not self._timer.running:
            return
        self.registry.sample(self.sim.now, run=self.run)
        self.ticks += 1
        self._timer.rearm()
