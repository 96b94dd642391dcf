"""Health-engine overhead — cost of streaming SLIs + alert evaluation.

Runs the canonical chaos scenario with the health engine off and on and
reports the wall-time cost of the telemetry daemon (snapshot + SLI
computation + rule evaluation every 0.25 simulated seconds) alongside
what it bought: the detection scorecard.  The engine is read-only, so
both runs produce identical model results — the delta is pure
observability overhead.
"""

import time

from repro.faults import run
from repro.obs.report import format_table

SEED = 1


def _timed(**kwargs):
    start = time.perf_counter()
    report = run("chaos", seed=SEED, **kwargs)
    return report, time.perf_counter() - start


def test_health_overhead(benchmark, emit):
    (off, off_s), (on, on_s) = benchmark.pedantic(
        lambda: (_timed(health=False), _timed(health=True)),
        rounds=1, iterations=1,
    )
    card = on.scorecard
    overhead = (on_s / off_s - 1.0) * 100.0 if off_s else 0.0
    emit(
        "health_overhead",
        format_table(
            ["run", "wall (s)", "alert transitions", "recall", "precision"],
            [
                ["health off", f"{off_s:.3f}", "-", "-", "-"],
                ["health on", f"{on_s:.3f}", len(on.alert_timeline),
                 f"{card.recall:.2f}", f"{card.precision:.2f}"],
            ],
            title=f"Health engine overhead — chaos 18 s, seed {SEED} "
                  f"(+{overhead:.0f}% wall)",
        ),
    )
    # Read-only contract: identical model outcomes either way.
    assert on.fault_log_jsonl == off.fault_log_jsonl
    assert on.failure_post_recovery == off.failure_post_recovery
    # And the run it instrumented was fully detected, with no noise.
    assert card.all_detected
    assert card.clean
