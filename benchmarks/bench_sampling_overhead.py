"""Sampling-overhead benchmark — what each flow-measurement mode costs.

Runs the telemetry scorecard's flood-plus-elephants scenario once per
stats mode (full polling, 1-in-10 packet sampling, measurement off) and
emits ``BENCH_sampling.json`` via the shared harness: wall time per
mode, the monitoring-cost counters (polls, sample reports,
control-channel bytes) and the accuracy each mode bought (elephant
recall, migrations).  The ``off`` run is the true zero-overhead
baseline — the datapath hook is a single ``is None`` check — so the
poll/sample deltas are the full cost of each measurement scheme.
"""

from _harness import emit_bench, measure

from repro.core.config import ScotchConfig
from repro.faults import run
from repro.obs.report import format_table

SCENARIO = dict(seed=1, duration=6.0, attack_rate=500.0,
                elephants=5, mice=5)
MODES = ("poll", "sample", "off")


def _run(mode):
    config = ScotchConfig(stats_mode=mode, sampling_period=10)
    return run("telemetry_point", config=config, **SCENARIO)


def test_sampling_overhead(emit):
    timings = {}
    for mode in MODES:
        timings[mode] = measure(lambda mode=mode: _run(mode),
                                warmup=0, repeats=2)
    scores = {mode: timing["result"] for mode, timing in timings.items()}

    workload = dict(SCENARIO)
    for mode in MODES:
        score = scores[mode]
        workload[f"{mode}_wall_seconds"] = round(
            timings[mode]["median"], 3)
        workload[f"{mode}_monitoring_bytes"] = score.monitoring_bytes
        workload[f"{mode}_polls_sent"] = score.polls_sent
        workload[f"{mode}_sample_reports"] = score.sample_reports
        workload[f"{mode}_recall"] = round(score.recall, 4)
    emit_bench("sampling", timings["sample"], workload=workload)

    rows = []
    off_wall = timings["off"]["median"]
    for mode in MODES:
        score = scores[mode]
        wall = timings[mode]["median"]
        overhead = (wall / off_wall - 1.0) * 100.0 if off_wall else 0.0
        rows.append([
            mode, f"{wall:.3f}", f"{overhead:+.1f}%",
            score.polls_sent, score.sample_reports,
            f"{score.monitoring_bytes:,}",
            f"{score.recall:.2f}" if mode != "off" else "-",
        ])
    emit("sampling_overhead", format_table(
        ["mode", "wall (s)", "vs off", "polls", "reports", "bytes", "recall"],
        rows,
        title="Flow-measurement overhead — flood 500 f/s + 5 elephants, 6 s sim",
    ))

    # Measurement off really measures nothing; both active modes find
    # the elephants; sampling is >= 5x cheaper on the control channel.
    assert scores["off"].monitoring_bytes == 0
    assert scores["off"].flagged == 0
    assert scores["poll"].recall >= 0.9
    assert scores["sample"].recall >= 0.9
    assert (scores["poll"].monitoring_bytes
            >= 5 * scores["sample"].monitoring_bytes)
