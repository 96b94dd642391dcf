"""The benchmark's metrics, named once.

``exact`` metrics are simulated statistics or deterministic counts: for
a fixed seed they are identical in every repeat and on every machine,
so a simulator-only speed-up must leave them untouched.  The others are
host-side timings and carry a bound in ``BENCHMARK.json``.

Simulated and host figures are kept apart: ``*_wall_s``, ``setup_s``,
``ops_per_wall_s``, ``peak_rss_mib`` and every ``*.self_frac`` are what
the simulator costs the host; latencies, fractions and counts are what
the modelled network did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from benchmarks.e2e.layers import LAYERS

#: Samples a p99 needs (at least ten beyond it).
P99_MIN_SAMPLES = 1000


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    exact: bool
    definition: str
    #: Workloads that define it; None = all four.
    only_on: Optional[Tuple[str, ...]] = None
    #: ``BENCHMARK.json`` takes no metric that can read 0.
    can_be_zero: bool = False

    @property
    def in_contract(self) -> bool:
        """Listed in ``BENCHMARK.json`` (end-to-end metrics only; every
        per-layer metric is listed)."""
        return self.only_on is None and not self.can_be_zero


_FLOWS = ("flashcrowd_scale", "chaos_health", "elephant_mix")

END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", False,
           "median wall time of everything before sim.run: build topology, "
           "configure overlay, attach apps and daemons, schedule traffic"),
    Metric("run_wall_s", "s", "lower", False,
           "median perf_counter time of sim.run (+ final invariant check), "
           "tracing off"),
    Metric("ops_per_wall_s", "op/s", "higher", False,
           "completed ops / run_wall_s; a failed or undelivered op "
           "contributes nothing"),
    Metric("peak_rss_mib", "MiB", "lower", False,
           "ru_maxrss of the workload's own child process after the timed "
           "repeats, before the traced run"),
    Metric("delivered_frac", "fraction", "higher", True,
           "completed / attempted ops (1 - failed_frac; the form that is "
           "never 0)"),
    Metric("failed_frac", "fraction", "lower", True,
           "(attempted - completed) / attempted ops: the paper's client "
           "flow failure fraction (sec. 3.2); packets short on "
           "elephant_mix; Packet-Ins not handled on pool_failover",
           can_be_zero=True),
    Metric("setup_latency_p50_ms", "ms", "lower", True,
           "simulated first send -> first delivery, median over delivered "
           "flows in the window", only_on=_FLOWS),
    Metric("setup_latency_p99_ms", "ms", "lower", True,
           f"same, 99th percentile; only with >= {P99_MIN_SAMPLES} samples",
           only_on=_FLOWS),
    Metric("events_per_op", "count", "lower", True,
           "Simulator.events_fired during run / attempted ops"),
    Metric("ctrl_msgs_per_op", "count", "lower", True,
           "sum over ControlChannels of to_controller_count + "
           "to_switch_count / attempted ops: control-plane load per op, "
           "the quantity Scotch exists to bound"),
    Metric("failover_p50_s", "s", "lower", True,
           "simulated median of pool.failover_windows",
           only_on=("pool_failover",)),
    Metric("elephant_recall", "fraction", "higher", True,
           "flagged true elephants / overlay-riding elephants past "
           "elephant_packet_threshold", only_on=("elephant_mix",)),
)

#: Counters the modules keep, read after an untraced run (all exact).
COUNTERS = (
    ("net.link_drop_frac", "fraction", "lower",
     "DirectedLink.dropped / (dropped + delivered)"),
    ("switch.datapath.punt_frac", "fraction", "lower",
     "Datapath.punted / processed: share of packets leaving the fast path"),
    ("switch.flow_table.lookups_per_op", "count", "lower",
     "FlowTable.lookups / attempted ops"),
    ("switch.flow_table.hit_frac", "fraction", "higher",
     "FlowTable.hits / lookups"),
    ("switch.ofa.packet_in_drop_frac", "fraction", "lower",
     "packet_ins_dropped / (sent + dropped)"),
    ("switch.ofa.install_fail_frac", "fraction", "lower",
     "installs_failed / installs_attempted"),
    ("openflow.drop_frac", "fraction", "lower",
     "ControlChannel messages dropped / sent, both directions"),
    ("controller.retry_frac", "fraction", "lower",
     "ReliableSender.retries / sent"),
    ("controller.abandoned", "count", "lower", "ReliableSender.abandoned"),
    ("controller.polls_sent", "count", "lower", "StatsPoller.polls_sent"),
    ("core.overlay_flow_frac", "fraction", "higher",
     "InstallScheduler flows_overlaid / (admitted + overlaid)"),
    ("core.flows_dropped", "count", "lower", "InstallScheduler.flows_dropped"),
    ("core.migrations_completed", "count", "higher",
     "ElephantMigrator.migrations_completed"),
    ("cluster.orphaned_frac", "fraction", "lower",
     "ControllerPool.orphaned / packet_ins_total"),
    ("cluster.bus_msgs_per_op", "count", "lower",
     "PoolBus.sent / attempted ops"),
    ("cluster.bus_drop_frac", "fraction", "lower",
     "PoolBus (dropped + partition_blocked) / sent"),
    ("cluster.double_installs", "count", "lower",
     "ControllerPool.double_installs"),
    ("faults.invariant_checks", "count", "higher",
     "InvariantChecker.checks_run"),
    ("faults.violations", "count", "lower", "InvariantChecker violations"),
    ("obs.alert_transitions", "count", "lower",
     "HealthEngine alert timeline length"),
)


def _per_layer() -> Tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_frac", "fraction", "lower", False,
                          "share of profiled self time in the layer's files"))
        out.append(Metric(f"{layer}.py_calls_per_op", "count", "lower", True,
                          "profiled calls into the layer's functions / "
                          "attempted ops"))
        out.append(Metric(f"{layer}.root_events_per_op", "count", "lower",
                          True, "events whose callback the layer defines / "
                          "attempted ops"))
    out += [
        Metric("total.py_calls_per_op", "count", "lower", True,
               "all profiled calls / attempted ops: the low-noise proxy "
               "for host work"),
        Metric("sim.heap_depth_max", "count", "lower", True,
               "largest calendar population seen after an event"),
        Metric("sim.heap_depth_mean", "count", "lower", True,
               "mean calendar population after an event"),
        Metric("trace.overhead_frac", "fraction", "lower", False,
               "traced run_wall_s / untraced median - 1; reported, never "
               "gated"),
    ]
    out += [Metric(name, unit, better, True, definition)
            for name, unit, better, definition in COUNTERS]
    out.append(Metric(
        "obs.health_tax_frac", "fraction", "lower", False,
        "chaos_health only: median run_wall_s of three timed repeats / "
        "median of three interleaved runs with no HealthEngine and no "
        "metrics registry - 1; 0 where no health engine runs"))
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()
