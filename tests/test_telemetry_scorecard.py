"""Acceptance tests for the sampled-telemetry accuracy/overhead
scorecard: 1-in-10 sampling must keep elephant-detection recall >= 0.9
while cutting flow-stats control-channel bytes >= 5x vs. full polling —
on both the flood scenario (the scorecard's own run) and the scale
scenario — proven from the scorecard JSON itself."""

import json

import pytest

pytestmark = pytest.mark.slow  # scenario-scale runs (several seconds each)

from repro.core.config import ScotchConfig
from repro.obs import Observability, observed
from repro.obs.report import render_html, render_text
from repro.telemetry.scorecard import (
    TELEMETRY_SCORECARD_VERSION,
    run_telemetry_scorecard,
    telemetry_scorecard_json,
)

SCORECARD_KWARGS = dict(
    seed=1, duration=6.0, attack_rate=500.0, elephants=5, mice=5,
    periods=(10,),
)


@pytest.fixture(scope="module")
def card():
    return run_telemetry_scorecard(**SCORECARD_KWARGS)


@pytest.fixture(scope="module")
def payload(card):
    return json.loads(telemetry_scorecard_json(card))


def _run(payload, mode):
    return next(r for r in payload["telemetry_runs"] if r["mode"] == mode)


def test_scorecard_meets_accuracy_and_overhead_targets(payload):
    """The PR's acceptance bar, read from the scorecard JSON."""
    sample = _run(payload, "sample")
    assert sample["period"] == 10
    assert sample["recall"] >= 0.9
    assert sample["byte_reduction"] >= 5.0
    # And the baseline proves the scenario is detectable at all.
    assert _run(payload, "poll")["recall"] >= 0.9


def test_scorecard_truth_is_nontrivial(payload):
    poll = _run(payload, "poll")
    assert poll["true_elephants"] >= 3
    assert poll["polls_sent"] > 0
    sample = _run(payload, "sample")
    assert sample["polls_sent"] == 0
    assert sample["sample_reports"] > 0
    assert sample["estimates_emitted"] > 0
    assert sample["migrations_completed"] >= sample["flagged_true"] > 0
    assert sample["mean_detection_delay"] is not None
    assert sample["mean_detection_delay"] < 3.0
    assert sample["precision"] >= 0.9


def test_scorecard_payload_shape(payload):
    assert payload["kind"] == "telemetry_scorecard"
    assert payload["version"] == TELEMETRY_SCORECARD_VERSION
    assert payload["seed"] == 1
    assert len(payload["telemetry_runs"]) == 2
    assert [r["mode"] for r in payload["telemetry_runs"]] == ["poll", "sample"]


def test_scorecard_json_is_canonical_and_deterministic(card, payload):
    text = telemetry_scorecard_json(card)
    # Canonical: compact separators, sorted keys, single line.
    assert "\n" not in text
    assert ": " not in text
    assert json.loads(text) == payload
    # Deterministic: an identical re-run differs at most in the
    # wall-clock-derived cpu-share fields.
    rerun = json.loads(telemetry_scorecard_json(
        run_telemetry_scorecard(**SCORECARD_KWARGS)))

    def strip_cpu(p):
        return {
            **p,
            "telemetry_runs": [
                {k: v for k, v in run.items() if k != "controller_cpu_share"}
                for run in p["telemetry_runs"]
            ],
        }

    assert strip_cpu(rerun) == strip_cpu(payload)


def test_ascii_and_html_renderings(card):
    text = render_text(card.page()[1])
    assert "Telemetry scorecard" in text
    assert "sample 1/10" in text
    assert "recall" in text
    assert "poll-baseline" not in text  # the legend is for the page
    html = render_html(*card.page())
    assert html.startswith("<!DOCTYPE html>")
    assert "accuracy / overhead scorecard" in html
    assert "sample 1/10" in html
    assert "poll-baseline" in html
    assert "</html>" in html


def test_inspect_sniffs_and_summarizes_scorecard(card, tmp_path):
    from repro.obs.artifacts import ARTIFACTS, sniff_kind

    path = tmp_path / "telemetry.json"
    path.write_text(telemetry_scorecard_json(card) + "\n")
    assert sniff_kind(str(path)) == "telemetry_scorecard"
    table, line = ARTIFACTS["telemetry_scorecard"].sections(str(path))
    assert f"(schema v{TELEMETRY_SCORECARD_VERSION})" in line.text
    assert [row[0] for row in table.rows] == ["poll", "sample 1/10"]


def test_scale_scenario_sampling_cuts_monitoring_bytes():
    """The scale scenario's half of the acceptance bar: same seed, same
    flash crowd, sample mode >= 5x cheaper with unchanged client
    outcome."""
    from repro.faults import format_report, run

    results = {}
    for mode in ("poll", "sample"):
        with observed(Observability(trace=False, metrics=True)):
            results[mode] = run(
                "scale", seed=2, host_vswitches=40, mesh=4, tors=2, targets=4,
                duration=4.0,
                config=ScotchConfig(stats_mode=mode, sampling_period=10),
            )
    poll, sample = results["poll"], results["sample"]
    assert poll.extras["monitoring_bytes"] > 0
    assert sample.extras["sample_reports"] > 0
    assert (poll.extras["monitoring_bytes"]
            >= 5.0 * sample.extras["monitoring_bytes"])
    # Estimates drive the same client-visible behaviour.
    assert sample.client_failure == pytest.approx(poll.client_failure, abs=0.05)
    assert "monitoring polls" in format_report(sample)
