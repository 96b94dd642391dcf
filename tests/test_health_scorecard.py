"""Tests for ground-truth extraction and the detection scorecard — unit
tests on synthetic logs/timelines plus chaos-run integration (slow)."""

import json

import pytest

from repro.obs.report import render_html, render_text
from repro.obs.rules import parse_rules
from repro.obs.scorecard import (
    FLASH_CROWD,
    TruthWindow,
    build_scorecard,
    firings_from_timeline,
    health_sections,
    scorecard_from_payload,
    scorecard_json,
    scorecard_sections,
    truth_windows,
)


def _firing(alert, t0, t1):
    return [
        {"t": t0, "alert": alert, "state": "firing", "sli": "s",
         "value": 1.0, "severity": "warning"},
        {"t": t1, "alert": alert, "state": "resolved", "sli": "s",
         "value": 0.0, "severity": "warning"},
    ]


# ----------------------------------------------------------------------
# Ground-truth windows
# ----------------------------------------------------------------------
def test_truth_windows_cover_every_log_shape():
    log = [
        # clear-closing fault
        {"t": 1.0, "kind": "channel_loss", "target": "edge", "phase": "inject"},
        {"t": 3.0, "kind": "channel_loss", "target": "edge", "phase": "clear"},
        # self-closing via duration (ofa_stall logs no clear)
        {"t": 2.0, "kind": "ofa_stall", "target": "s1", "phase": "inject",
         "duration": 1.5},
        # flap: the last "up" ends the window
        {"t": 5.0, "kind": "channel_flap", "target": "edge", "phase": "inject"},
        {"t": 5.1, "kind": "channel_flap", "target": "edge", "phase": "down"},
        {"t": 5.2, "kind": "channel_flap", "target": "edge", "phase": "up"},
        {"t": 5.6, "kind": "channel_flap", "target": "edge", "phase": "up"},
        # never cleared: stays open until run end
        {"t": 8.0, "kind": "vswitch_crash", "target": "v1", "phase": "inject"},
    ]
    windows = truth_windows(
        log, run_end=10.0,
        extra=(TruthWindow(FLASH_CROWD, "edge", 0.5, 9.0),))
    assert [(w.cls, w.target, w.t0, w.t1) for w in windows] == [
        (FLASH_CROWD, "edge", 0.5, 9.0),
        ("channel_loss", "edge", 1.0, 3.0),
        ("ofa_stall", "s1", 2.0, 3.5),
        ("channel_flap", "edge", 5.0, 5.6),
        ("vswitch_crash", "v1", 8.0, 10.0),
    ]


def test_firings_from_timeline_clamps_open_intervals():
    timeline = [{"t": 2.0, "alert": "r", "state": "firing", "sli": "s",
                 "value": 1.0, "severity": "warning"}]
    assert firings_from_timeline(timeline, run_end=5.0) == [("r", 2.0, 5.0)]


# ----------------------------------------------------------------------
# Scorecard join
# ----------------------------------------------------------------------
def test_build_scorecard_matching_latency_and_false_positives():
    rules = parse_rules(
        "loss_rule: s > 1 detects channel_loss\n"
        "dead_rule: s > 1 detects vswitch_crash\n")
    truth = [
        TruthWindow("channel_loss", "edge", 2.0, 4.0),
        TruthWindow("vswitch_crash", "v1", 6.0, 8.0),
    ]
    timeline = (_firing("loss_rule", 2.5, 4.5)    # overlap -> TP
                + _firing("loss_rule", 9.0, 9.5)  # matches nothing -> FP
                + _firing("dead_rule", 8.5, 9.0))  # within tolerance -> TP
    card = build_scorecard(rules, timeline, truth, run_end=10.0,
                           tolerance=1.0)
    assert card.classes["channel_loss"].detected == 1
    assert card.classes["channel_loss"].latencies == [0.5]
    assert card.classes["channel_loss"].detected_by == ["loss_rule"]
    assert card.classes["vswitch_crash"].detected == 1
    assert card.classes["vswitch_crash"].latencies == [2.5]
    assert card.rules["loss_rule"].firings == 2
    assert card.rules["loss_rule"].true_positives == 1
    assert card.false_positives == [("loss_rule", 9.0, 9.5)]
    assert card.recall == 1.0
    assert card.precision == pytest.approx(2 / 3)
    assert card.all_detected and not card.clean


def test_scorecard_misses_firings_outside_tolerance():
    rules = parse_rules("r: s > 1 detects channel_loss")
    truth = [TruthWindow("channel_loss", "edge", 1.0, 2.0)]
    card = build_scorecard(rules, _firing("r", 3.5, 4.0), truth,
                           run_end=5.0, tolerance=1.0)
    assert card.classes["channel_loss"].detected == 0
    assert card.recall == 0.0
    assert not card.all_detected
    # A late firing matching no window is also a false positive.
    assert card.false_positives == [("r", 3.5, 4.0)]


def test_scorecard_json_is_deterministic():
    rules = parse_rules("r: s > 1 detects channel_loss")
    truth = [TruthWindow("channel_loss", "edge", 1.0, 2.0)]
    card = build_scorecard(rules, _firing("r", 1.5, 2.5), truth, run_end=5.0)
    payload = json.loads(scorecard_json(card))
    assert payload["recall"] == 1.0
    assert payload["classes"]["channel_loss"]["detected_by"] == ["r"]
    assert payload["rules"]["r"]["true_positives"] == 1
    assert scorecard_json(card) == scorecard_json(card)
    # What `inspect card.json` shows is what the run printed.
    loaded = scorecard_from_payload(payload)
    assert (render_text(scorecard_sections(loaded))
            == render_text(scorecard_sections(card)))


def test_reports_render_ascii_and_html():
    series = {"sli.a": [(0.0, 0.0), (1.0, 5.0), (2.0, 1.0)]}
    timeline = _firing("r", 0.5, 1.5)
    truth = (TruthWindow("channel_loss", "edge", 0.4, 1.2),)
    text = render_text(health_sections(series, timeline, run_end=2.0,
                                       truth=truth))
    assert "sli.a" in text
    assert "r" in text and "channel_loss" in text
    assert "Alert timeline" not in text  # the bands stand in for it
    card = build_scorecard(parse_rules("r: s > 1 detects channel_loss"),
                           timeline, list(truth), run_end=2.0)
    assert "Detection scorecard" in render_text(scorecard_sections(card))
    html = render_html("Health", health_sections(
        series, timeline, run_end=2.0, truth=truth, scorecard=card))
    assert html.startswith("<!DOCTYPE html")
    assert "<svg" in html and "sli.a" in html
    assert "Alert timeline" in html
    assert "Detection scorecard" in html


def test_pages_escape_names_from_rule_files():
    """Rule names come from a user's --rules file; the one HTML
    renderer escapes every title, label and cell."""
    name = 'a<b>&"c'
    timeline = _firing(name, 0.5, 1.5)
    truth = [TruthWindow("channel_loss", "edge", 0.4, 1.2)]
    card = build_scorecard(parse_rules(f"{name}: s > 1 detects channel_loss"),
                           timeline, truth, run_end=2.0)
    assert name in card.rules
    html = render_html(f"Health — {name}", health_sections(
        {name: [(0.0, 1.0)]}, timeline, run_end=2.0, truth=truth,
        scorecard=card))
    assert name not in html
    assert html.count("a&lt;b&gt;&amp;&quot;c") >= 5  # title, h1, chart, timeline, scorecard


# ----------------------------------------------------------------------
# Chaos integration (the acceptance criteria of the health engine)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def health_report(chaos_report):
    return chaos_report(1, health=True)


@pytest.mark.slow
@pytest.mark.chaos
def test_default_plan_full_recall_and_zero_false_positives(health_report):
    card = health_report.scorecard
    assert card.recall == 1.0 and card.all_detected
    assert card.precision == 1.0 and card.clean
    assert set(card.classes) == {
        FLASH_CROWD, "channel_loss", "ofa_stall", "vswitch_crash",
        "channel_flap", "controller_outage",
    }
    # Every built-in rule fires for (at least) its own failure shape —
    # except estimator_starved, which watches the sampled-telemetry
    # export path and must stay inert under full polling (no staleness
    # gauges exist, so its SLI reads 0 for the whole run).
    assert card.rules["estimator_starved"].firings == 0
    assert all(score.firings > 0
               for name, score in card.rules.items()
               if name != "estimator_starved")
    assert all(score.true_positives == score.firings
               for score in card.rules.values())


@pytest.mark.slow
@pytest.mark.chaos
def test_fault_free_baseline_has_zero_false_positives():
    from repro.faults import FaultPlan, run

    report = run("chaos", seed=1, plan=FaultPlan(), health=True)
    card = report.scorecard
    assert card.clean
    # ... and recovers, so `chaos --no-faults` exits 0 on both verdicts.
    assert report.healthy
    # The flood is kept, so the only truth window is the synthetic
    # flash crowd — and the overload rule detecting it is a TP.
    assert list(card.classes) == [FLASH_CROWD]
    assert card.classes[FLASH_CROWD].detected == 1


@pytest.mark.slow
@pytest.mark.chaos
def test_same_seed_gives_byte_identical_alert_timeline(health_report):
    from repro.faults import run

    again = run("chaos", seed=1, health=True)
    assert again.alert_timeline_jsonl == health_report.alert_timeline_jsonl
    assert again.fault_log_jsonl == health_report.fault_log_jsonl


@pytest.mark.slow
@pytest.mark.chaos
def test_health_engine_does_not_perturb_the_model(health_report, chaos_report):
    plain = chaos_report(1, health=False)
    assert plain.scorecard is None
    assert plain.fault_log_jsonl == health_report.fault_log_jsonl
    assert plain.failure_during_faults == health_report.failure_during_faults
    assert plain.failure_post_recovery == health_report.failure_post_recovery
    assert plain.flows_started == health_report.flows_started
    assert plain.reliable == health_report.reliable
