"""Critical-path analysis: journey grouping, per-stage attribution that
reconciles with end-to-end durations, longest-chain extraction, and the
JSONL/HTML renderings."""

import json

import pytest

from repro.obs import Observability, observed
from repro.obs.critpath import (
    UNATTRIBUTED,
    attribute,
    attribution_rows,
    attribution_sections,
    format_tree,
    journeys,
    longest_chain,
    read_report,
    report_jsonl,
)
from repro.obs.path import SPAN_PACKET_IN
from repro.obs.report import render_html, render_text
from repro.testbed.single_switch import SERVER_IP, build_single_switch
from repro.traffic import NewFlowSource, SpoofedFlood


# ----------------------------------------------------------------------
# Synthetic traces
# ----------------------------------------------------------------------
def _span(name, t0, t1, span_id=None, journey=None, run=0, **args):
    if journey is not None:
        args["journey"] = journey
    record = {"type": "span", "run": run, "name": name, "cat": "control",
              "track": "t", "t0": t0, "t1": t1, "args": args}
    if span_id is not None:
        record["id"] = span_id
    return record


def _synthetic_trace():
    return [
        _span(SPAN_PACKET_IN, 0.0, 1.0, span_id=1, switch="sw1", route="open"),
        _span("ofa.queue", 0.0, 0.4, span_id=2, journey=1),
        _span("channel.to_controller", 0.4, 0.7, span_id=3, journey=1),
        _span("controller.handle", 0.7, 1.0, span_id=4, journey=1),
        _span(SPAN_PACKET_IN, 2.0, 4.0, span_id=5, switch="sw1", route="open"),
        _span("ofa.queue", 2.0, 3.5, span_id=6, journey=5),
        _span("controller.handle", 3.5, 4.0, span_id=7, journey=5),
        # Orphan stage (unknown journey) and still-open span: ignored.
        _span("ofa.queue", 9.0, 9.5, span_id=8, journey=99),
        _span(SPAN_PACKET_IN, 5.0, None, span_id=9),
    ]


def test_journeys_group_stages_under_their_packet_in():
    grouped = journeys(_synthetic_trace())
    assert [j["id"] for j in grouped] == [1, 5]
    assert [len(j["stages"]) for j in grouped] == [3, 2]
    assert grouped[0]["duration"] == 1.0
    assert [s["name"] for s in grouped[0]["stages"]] == [
        "ofa.queue", "channel.to_controller", "controller.handle"]


def test_attribute_reconciles_and_reports_percentiles():
    report = attribute(_synthetic_trace())
    assert report["journeys"] == 2
    assert report["total_s"] == 3.0
    stages = report["stages"]
    # Every journey contributes one unattributed sample (0 here: the
    # stages tile each journey exactly).
    assert stages[UNATTRIBUTED]["count"] == 2
    assert stages[UNATTRIBUTED]["total_s"] == 0.0
    assert report["reconciliation"] == {"max_abs_gap_s": 0.0,
                                        "negative_gaps": 0}
    # Stage totals sum to the journey total — the reconciliation law.
    assert sum(s["total_s"] for s in stages.values()) == report["total_s"]
    assert stages["ofa.queue"]["count"] == 2
    assert stages["ofa.queue"]["total_s"] == pytest.approx(1.9)
    assert stages["ofa.queue"]["p50_ms"] == pytest.approx(950.0)
    assert stages["ofa.queue"]["max_ms"] == pytest.approx(1500.0)
    assert stages["channel.to_controller"]["share"] == pytest.approx(0.3 / 3.0)


def test_attribute_reports_gaps_when_stages_do_not_tile():
    trace = [
        _span(SPAN_PACKET_IN, 0.0, 1.0, span_id=1, route="open"),
        _span("ofa.queue", 0.0, 0.25, span_id=2, journey=1),
    ]
    report = attribute(trace)
    assert report["stages"][UNATTRIBUTED]["total_s"] == pytest.approx(0.75)
    assert report["reconciliation"]["max_abs_gap_s"] == pytest.approx(0.75)
    assert report["reconciliation"]["negative_gaps"] == 0


def test_longest_chain_and_tree_rendering():
    chain = longest_chain(_synthetic_trace())
    assert chain["id"] == 5 and chain["duration"] == 2.0
    tree = format_tree(chain)
    assert "packet_in #5" in tree
    assert "ofa.queue" in tree and UNATTRIBUTED in tree
    assert longest_chain([]) is None


def test_report_jsonl_and_html():
    records = _synthetic_trace()
    report = attribute(records)
    chain = longest_chain(records)
    header, *lines = [json.loads(line)
                      for line in report_jsonl(report, chain).splitlines()]
    assert header == {"type": "schema", "schema": "critpath", "version": 1}
    assert lines[0]["type"] == "critpath_summary"
    assert lines[0]["journeys"] == 2
    stage_lines = [l for l in lines if l["type"] == "critpath_stage"]
    assert {l["stage"] for l in stage_lines} == set(report["stages"])
    assert lines[-1]["type"] == "critpath_longest"
    assert [s["name"] for s in lines[-1]["stages"]] == [
        "ofa.queue", "controller.handle"]
    # The reader inverts the writer: same report, same tree.
    loaded, loaded_chain = read_report(lines)
    assert loaded == report
    assert format_tree(loaded_chain) == format_tree(chain)
    sections = attribution_sections(report, chain, "Attribution")
    page = render_html("T", sections)
    assert page.startswith("<!DOCTYPE html>")
    assert "ofa.queue" in page and "Longest chain" in page
    assert "ofa.queue" in render_text(sections)
    # Empty traces render the explanatory fallback, not a broken table
    # (on the page; a terminal gets nothing).
    empty = attribution_sections(attribute([]), None, "Attribution")
    assert "No completed Packet-In journeys" in render_html("T", empty)
    assert render_text(empty) == ""


# ----------------------------------------------------------------------
# The fig3 scenario (acceptance: stage sums reconcile with end-to-end)
# ----------------------------------------------------------------------
def _fig3_trace_records():
    obs = Observability(trace=True, metrics=False)
    with observed(obs):
        bed = build_single_switch(seed=1)
        client = NewFlowSource(bed.sim, bed.client, SERVER_IP, rate_fps=100.0)
        attack = SpoofedFlood(bed.sim, bed.attacker, SERVER_IP, rate_fps=500.0)
        client.start(at=0.5, stop_at=2.5)
        attack.start(at=0.5, stop_at=2.5)
        bed.sim.run(until=3.5)
    return [r for r in obs.tracer.records() if r["t1"] is not None]


@pytest.mark.slow
def test_fig3_stage_sums_reconcile_with_journey_durations():
    records = _fig3_trace_records()
    grouped = journeys(records)
    assert len(grouped) > 50, "the fig3 workload must produce journeys"
    for journey in grouped:
        covered = sum(s["t1"] - s["t0"] for s in journey["stages"])
        # Stages tile the journey: the float-tolerance acceptance bound.
        assert covered == pytest.approx(journey["duration"], abs=1e-9)
    report = attribute(records)
    assert report["reconciliation"]["max_abs_gap_s"] < 1e-9
    assert sum(s["total_s"] for s in report["stages"].values()) == \
        pytest.approx(report["total_s"], abs=1e-6)
    # The paper's stages all appear in the attribution.
    assert {"ofa.queue", "channel.to_controller",
            "controller.handle"} <= set(report["stages"])
    rows = attribution_rows(report)
    assert len(rows) == len(report["stages"])
