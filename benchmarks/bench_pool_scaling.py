"""Pool scaling — failover and migration cost vs controller pool size.

Runs the pool chaos workload (docs/cluster.md) at pool sizes 1, 2 and 4
over the same switch fabric and traffic load.  Size 1 is the seed-
equivalent single-controller baseline (no faults — there is nobody to
fail over to); sizes 2 and 4 take staggered member crashes and report
the lease-bounded failover windows (p50/p95), barrier-acked role
migration latencies, and sim events/sec throughput.
"""

from _harness import emit_bench, measure

from repro.faults import format_report, run
from repro.faults.plan import FaultPlan
from repro.metrics.stats import percentile
from repro.obs.report import format_table

DURATION = 20.0
SWITCHES = 8
RATE_FPS = 400.0


def _plan(members: int) -> FaultPlan:
    """Staggered member crashes: one per spare member, recovery later."""
    plan = FaultPlan()
    for index in range(1, members):
        plan.pool_member_crash(4.0 + 4.0 * (index - 1), f"c{index}",
                               down_for=6.0)
    return plan


def _run(members: int):
    plan = _plan(members) if members > 1 else FaultPlan()
    return run("pool_chaos", seed=7, duration=DURATION, controllers=members,
                          switches=SWITCHES, rate_fps=RATE_FPS, plan=plan)


def test_pool_scaling(emit):
    sizes = (1, 2, 4)
    rows = []
    workload = {"duration_s": DURATION, "switches": SWITCHES,
                "rate_fps": RATE_FPS, "sizes": list(sizes)}
    reports = {}
    for members in sizes:
        timing = measure(lambda m=members: _run(m), warmup=0, repeats=3)
        report = timing["result"]
        reports[members] = report
        events_per_s = report.packet_ins_total / timing["median"]
        windows = report.failover_windows
        migrations = report.migration_latencies
        fo_p50 = percentile(windows, 50.0) if windows else None
        fo_p95 = percentile(windows, 95.0) if windows else None
        mig_p50 = percentile(migrations, 50.0) if migrations else None
        rows.append([
            members, report.packet_ins_total, f"{events_per_s:,.0f}",
            len(windows),
            "-" if fo_p50 is None else f"{fo_p50 * 1000.0:.0f} ms",
            "-" if fo_p95 is None else f"{fo_p95 * 1000.0:.0f} ms",
            "-" if mig_p50 is None else f"{mig_p50 * 1000.0:.1f} ms",
            "HEALTHY" if report.healthy else "DEGRADED",
        ])
        workload[f"pool_{members}"] = {
            "packet_ins": report.packet_ins_total,
            "events_per_s": round(events_per_s, 1),
            "wall_median_s": timing["median"],
            "failovers": len(windows),
            "failover_p50_s": None if fo_p50 is None else round(fo_p50, 4),
            "failover_p95_s": None if fo_p95 is None else round(fo_p95, 4),
            "migration_p50_s": (None if mig_p50 is None
                                else round(mig_p50, 4)),
            "handoffs": report.handoffs_acked,
            "healthy": report.healthy,
        }
    total = measure(lambda: [_run(m) for m in sizes], warmup=0, repeats=1)
    emit_bench("pool", total, workload=workload)
    emit(
        "pool_scaling",
        format_table(
            ["pool size", "packet-ins", "events/s", "failovers",
             "failover p50", "failover p95", "migration p50", "verdict"],
            rows,
            title=f"Pool scaling — {SWITCHES} switches, {RATE_FPS:.0f} f/s, "
                  f"{DURATION:.0f} s, staggered member crashes",
        )
        + "\n\n"
        + format_report(reports[4]),
    )
    for members, report in reports.items():
        assert report.healthy, f"pool size {members} degraded"
        assert report.double_installs == 0
        assert len(report.acked_master) == SWITCHES
    # Pool sizes with spares must survive crashes with bounded windows.
    for members in (2, 4):
        report = reports[members]
        assert report.failover_windows, f"pool size {members} saw no failover"
        assert max(report.failover_windows) <= report.grace
