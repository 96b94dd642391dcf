"""Chaos recovery — client impact of the docs/robustness.md fault gauntlet.

Runs the canonical chaos scenario (every fault class on the fixed
timeline, invariant checker armed) and reports the §3.2 client flow
failure fraction during the fault window versus after recovery, plus
the control-plane repair work it took to get there.
"""

from _harness import emit_bench, measure

from repro.faults import format_report, run
from repro.obs.report import format_table

SEEDS = (1, 2, 3)


def test_chaos_recovery(emit):
    timing = measure(
        lambda: [run("chaos", seed=seed) for seed in SEEDS], warmup=0, repeats=1
    )
    reports = timing["result"]
    # The provenance + flight-recorder overhead contract
    # (docs/observability.md#causality--flight-recorder): the same
    # gauntlet with postmortem instrumentation on, so the fractional
    # cost of causal provenance rides in the tracked BENCH_ file.
    instrumented = measure(
        lambda: [run("chaos", seed=seed, postmortem=True) for seed in SEEDS],
        warmup=0, repeats=1,
    )
    overhead = (instrumented["median"] - timing["median"]) / timing["median"]
    emit_bench("chaos", timing, workload={
        "seeds": list(SEEDS),
        "faults_injected": sum(r.faults_injected for r in reports),
        "flows_started": sum(r.flows_started for r in reports),
        "postmortem_median_s": instrumented["median"],
        "postmortem_overhead": round(overhead, 4),
        "postmortem_bundles": sum(
            len(r.postmortems) for r in instrumented["result"]),
    })
    emit(
        "chaos_recovery",
        format_table(
            ["seed", "faults", "failure (fault window)", "failure (recovered)",
             "failovers", "recoveries", "retries", "verdict"],
            [[r.seed, r.faults_injected, f"{r.failure_during_faults:.4f}",
              f"{r.failure_post_recovery:.4f}", r.failures_detected,
              r.recoveries_detected, r.reliable["retries"],
              "HEALTHY" if r.healthy else "DEGRADED"]
             for r in reports],
            title="Chaos recovery — full fault gauntlet, 18 s, flood 2000 f/s",
        )
        + "\n\n"
        + format_report(reports[0]),
    )
    for report in reports:
        assert report.healthy
        assert report.violations == []
        # The gauntlet must actually hurt while it is running…
        assert report.failure_during_faults > report.failure_post_recovery
        # …and the system must self-heal to near-zero client impact.
        assert report.failure_post_recovery < 0.05
