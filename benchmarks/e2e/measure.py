"""Measure one workload in this process: repeats, noise control, trace.

Run by ``run.py`` in a fresh child per workload, so ``peak_rss_mib`` is
the workload's own and no state leaks between workloads.
"""

from __future__ import annotations

import cProfile
import gc
import resource
from heapq import heappop, heappush
from statistics import median, quantiles
from time import perf_counter, process_time
from typing import Dict, List, Optional

from benchmarks.e2e.layers import BENCH, LAYERS, EventCounter, layer_rows
from benchmarks.e2e.metrics import COUNTERS, END_TO_END
from benchmarks.e2e.workloads import WORKLOADS, Workload

#: Fewest timed repeats a median is taken over.
MIN_REPEATS = 7
#: Timed repeats when only the traced run's figures are wanted: the
#: untraced base of ``trace.overhead_frac``, the on side of the tax.
TRACE_REPEATS = 3
#: A repeat whose CPU/wall ratio is below this was preempted; it is
#: discarded and rerun, at most MAX_DISCARDS times per workload.
CPU_WALL_FLOOR = 0.95
MAX_DISCARDS = 3
#: Off-side runs of ``obs.health_tax_frac``.
TAX_RUNS = 3


#: What one calibration takes on the host the timings are normalised
#: to (about the recording machine when quiet).
CALIBRATION_REFERENCE_S = 0.05


class _Cell:
    __slots__ = ("fired", "marks", "peer")

    def __init__(self) -> None:
        self.fired = 0
        self.marks = [0] * 8
        self.peer = self


class Calibration:
    """A fixed miniature event loop, timed to learn the host's speed.

    The sandbox's speed drifts by tens of percent within seconds, so
    every repeat is timed between and around calibrations and divided
    by their mean: what is reported is seconds on a host where one
    calibration takes CALIBRATION_REFERENCE_S.  Half the events walk a
    few cells (heap, dict, attribute and call work that stays in
    cache), half chase pointers through a few megabytes of them, so
    that both a busy sibling core and a contended cache show.  Only the
    standard library is involved: two commits are normalised alike."""

    EVENTS = 30_000
    CHAINS = 64
    CELLS = 32_768

    def __init__(self) -> None:
        self._cells = [_Cell() for _ in range(self.CELLS)]
        for index, cell in enumerate(self._cells):
            cell.peer = self._cells[(index * 7919 + 13) % self.CELLS]

    def __call__(self) -> float:
        start = perf_counter()
        self._loop(lambda cell, slot: self._cells[slot & 63], spacing=1)
        self._loop(lambda cell, slot: cell.peer,
                   spacing=self.CELLS // self.CHAINS)
        return perf_counter() - start

    def _loop(self, successor, spacing: int) -> None:
        """CHAINS concurrent chains of events over the cells, each
        event scheduling the next at ``successor``."""
        heap = [(chain, chain, self._cells[chain * spacing])
                for chain in range(self.CHAINS)]
        seen: Dict[int, int] = {}
        for seq in range(self.CHAINS, self.CHAINS + self.EVENTS):
            now, _, cell = heappop(heap)
            cell.fired += 1
            slot = (now * 7919 + seq) % 4093
            seen[slot] = seen.get(slot, 0) + 1
            cell.marks[slot & 7] = seq
            heappush(heap, (now + 1 + slot % 7, seq, successor(cell, slot)))


class _Run:
    """One set-up + run of a workload, with a calibration before it and
    after each of its slices.

    ``setup_s`` and ``wall_s`` are normalised by ``host_speed`` (1.0 =
    the reference host, 2.0 = half as fast); ``raw_wall_s`` and
    ``raw_cpu_s`` are what the clocks read, calibrations excluded.  A
    traced run is calibrated only before and after: nothing else runs
    under the profiler."""

    def __init__(self, cls, seed: int, scale: float,
                 calibrate: Calibration, before: float,
                 health: bool = True, traced: bool = False):
        # Collect before, not during: GC stays enabled, but no repeat
        # pays for the garbage of the one before it.
        gc.collect()
        start = perf_counter()
        workload: Workload = cls(seed, scale, health)
        setup_s = perf_counter() - start
        sim = workload.sim
        events_before = sim.events_fired
        calibrations = [before]
        self.raw_wall_s = self.raw_cpu_s = 0.0
        self.counter: Optional[EventCounter] = None
        self.profile: Optional[cProfile.Profile] = None

        def stop_clocks() -> None:
            self.raw_wall_s += perf_counter() - wall_start
            self.raw_cpu_s += process_time() - cpu_start

        def pause() -> None:
            nonlocal wall_start, cpu_start
            stop_clocks()
            calibrations.append(calibrate())
            cpu_start, wall_start = process_time(), perf_counter()

        if traced:
            self.counter = EventCounter()
            sim.set_event_hook(self.counter)
            self.profile = cProfile.Profile()
            cpu_start, wall_start = process_time(), perf_counter()
            self.profile.enable()
            workload.run()
            self.profile.disable()
            stop_clocks()
            calibrations.append(calibrate())
        else:
            cpu_start, wall_start = process_time(), perf_counter()
            workload.run(pause)
            stop_clocks()
        self.figures = workload.exact(sim.events_fired - events_before)
        self.failed_checks = workload.verify(self.figures)
        #: The last calibration; the next run's ``before``.
        self.after = calibrations[-1]
        self.host_speed = (sum(calibrations) / len(calibrations)
                           / CALIBRATION_REFERENCE_S)
        self.setup_s = setup_s / self.host_speed
        self.wall_s = self.raw_wall_s / self.host_speed


def spread(samples: List[float]) -> Dict[str, float]:
    """min, quartiles and median of the samples, and how many."""
    q1, q2, q3 = quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"n": len(samples), "min": min(samples), "q1": q1, "median": q2,
            "q3": q3, "max": max(samples)}


def measure(name: str, seed: int, scale: float, seconds: float,
            timed: bool, traced: bool) -> Dict[str, object]:
    """Warm up, repeat, optionally trace; returns the workload's result.

    ``timed`` repeats for ``seconds`` (at least MIN_REPEATS) and yields
    the end-to-end metrics; ``traced`` adds one profiled run and yields
    the per-layer metrics.  End-to-end metrics never come from the
    traced run."""
    cls = WORKLOADS[name]
    checks: List[str] = []

    def keep(run: _Run, what: str) -> _Run:
        checks.extend(f"{what}: {failure}" for failure in run.failed_checks)
        if run.figures != reference.figures:
            changed = sorted(k for k in reference.figures
                             if run.figures.get(k) != reference.figures[k])
            checks.append(f"{what}: exact metrics differ from the warm-up "
                          f"run: {', '.join(changed)}")
        return run

    calibrate = Calibration()
    # Warm-up: caches fill, lazy imports finish.
    reference = _Run(cls, seed, scale, calibrate, before=calibrate())
    keep(reference, "warm-up")
    calibration = reference.after

    runs: List[_Run] = []
    off_wall: List[float] = []
    discarded = 0
    with_tax = traced and cls.health_optional
    began = perf_counter()
    while (len(runs) < (MIN_REPEATS if timed else TRACE_REPEATS)
           or (timed and perf_counter() - began < seconds)):
        run = keep(_Run(cls, seed, scale, calibrate, calibration),
                   f"repeat {len(runs) + 1}")
        calibration = run.after
        if (run.raw_cpu_s / run.raw_wall_s < CPU_WALL_FLOOR
                and discarded < MAX_DISCARDS):
            discarded += 1
            continue
        runs.append(run)
        if with_tax and len(off_wall) < TAX_RUNS:
            off = _Run(cls, seed, scale, calibrate, calibration, health=False)
            calibration = off.after
            off_wall.append(off.wall_s)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    figures = reference.figures
    samples = {
        "setup_s": [run.setup_s for run in runs],
        "run_wall_s": [run.wall_s for run in runs],
        "raw_run_wall_s": [run.raw_wall_s for run in runs],
        "raw_run_cpu_s": [run.raw_cpu_s for run in runs],
        "host_speed": [run.host_speed for run in runs],
    }
    run_wall_s = median(samples["run_wall_s"])
    result: Dict[str, object] = {
        "workload": name, "seed": seed, "scale": scale, "op": cls.op,
        "attempted": figures["attempted"],
        "completed": figures["completed"],
        "figures": figures,
        "discarded_runs": discarded,
        "samples": {key: spread(values) for key, values in samples.items()},
        "checks_failed": checks,
    }
    if timed:
        end_to_end = {metric.name: figures[metric.name]
                      for metric in END_TO_END if metric.exact}
        end_to_end.update({
            "setup_s": median(samples["setup_s"]),
            "run_wall_s": run_wall_s,
            "ops_per_wall_s": figures["completed"] / run_wall_s,
            "peak_rss_mib": peak_rss_mib,
        })
        result["end_to_end"] = end_to_end
    if traced:
        run = keep(_Run(cls, seed, scale, calibrate, calibration, traced=True),
                   "traced run")
        tax = 0.0
        if off_wall:
            on_wall = samples["run_wall_s"][:TAX_RUNS]
            tax = median(on_wall) / median(off_wall) - 1
        result.update(_layer_result(run, figures, run_wall_s, tax))
    return result


def _layer_result(run: _Run, figures: Dict[str, object],
                  untraced_wall_s: float, tax: float) -> Dict[str, object]:
    """The per-layer metrics and the trace-file payload of a traced run."""
    rows, edges = layer_rows(run.profile)
    attempted = figures["attempted"]
    profiled_s = sum(rows[layer]["self_s"] for layer in LAYERS)
    per_layer: Dict[str, float] = {}
    for layer in LAYERS:
        row = rows[layer]
        row["root_events"] = run.counter.root_events.get(layer, 0)
        row["self_frac"] = row["self_s"] / profiled_s
        per_layer[f"{layer}.self_frac"] = row["self_frac"]
        per_layer[f"{layer}.py_calls_per_op"] = row["calls"] / attempted
        per_layer[f"{layer}.root_events_per_op"] = (
            row["root_events"] / attempted)
    per_layer.update({
        "total.py_calls_per_op":
            sum(rows[layer]["calls"] for layer in LAYERS) / attempted,
        "sim.heap_depth_max": run.counter.heap_depth_max,
        "sim.heap_depth_mean": run.counter.heap_depth_mean,
        "trace.overhead_frac": run.wall_s / untraced_wall_s - 1,
        "obs.health_tax_frac": tax,
    })
    per_layer.update({name: figures[name] for name, *_ in COUNTERS})
    trace = {
        "traced_run_wall_s": run.wall_s,
        "untraced_run_wall_s": untraced_wall_s,
        "events": run.counter.events,
        "attempted_ops": attempted,
        "layers": rows,
        "edges": edges,
        "harness_layer": BENCH,
    }
    return {"per_layer": per_layer, "trace": trace}
