"""Tests for the alert-rule DSL and its pending/firing state machine."""

import json

import pytest

from repro.obs.rules import (
    AlertState,
    builtin_rules,
    parse_rule,
    parse_rules,
    timeline_jsonl,
)
from repro.obs.scorecard import firings_from_timeline


# ----------------------------------------------------------------------
# DSL parsing
# ----------------------------------------------------------------------
def test_parse_full_rule():
    rule = parse_rule("hot: ofa.saturation > 0.9 for 0.5 clear 0.6 "
                      "detects flash_crowd,partition severity critical")
    assert rule.name == "hot"
    assert rule.sli == "ofa.saturation"
    assert rule.op == ">"
    assert rule.threshold == 0.9
    assert rule.for_s == 0.5
    assert rule.clear == 0.6
    assert rule.detects == ("flash_crowd", "partition")
    assert rule.severity == "critical"


def test_parse_minimal_rule_defaults():
    rule = parse_rule("low: some.rate < 5")
    assert rule.for_s == 0.0
    assert rule.clear is None
    assert rule.detects == ()
    assert rule.severity == "warning"
    assert rule.clear_level == 5.0  # no hysteresis: clears at threshold


@pytest.mark.parametrize("line", [
    "no colon here",
    ": sli > 1",              # empty name
    "name: too few",
    "name: sli >= 1",         # unknown operator
    "name: sli > notanum",
    "name: sli > 1 for",      # dangling keyword
    "name: sli > 1 for -1",   # negative hold
    "name: sli > 1 frobnicate 2",
])
def test_parse_rejects_bad_lines(line):
    with pytest.raises(ValueError):
        parse_rule(line)


def test_parse_rules_skips_comments_and_rejects_duplicates():
    rules = parse_rules("# a comment\n\na: x > 1  # trailing\nb: y < 2\n")
    assert [r.name for r in rules] == ["a", "b"]
    with pytest.raises(ValueError):
        parse_rules("a: x > 1\na: x > 2\n")


def test_builtin_rules_cover_the_failure_shapes():
    rules = builtin_rules()
    assert [r.name for r in rules] == [
        "ofa_overload", "path_congestion", "vswitch_dead",
        "controller_outage", "estimator_starved",
    ]
    # Every built-in rule declares the classes it detects and uses
    # hysteresis, so the scorecard join and the resolve path are
    # always exercised.
    assert all(r.detects for r in rules)
    assert all(r.clear is not None for r in rules)


# ----------------------------------------------------------------------
# State machine
# ----------------------------------------------------------------------
def test_pending_hold_then_firing_then_hysteresis_resolve():
    state = AlertState(parse_rule("r: s > 10 for 0.5 clear 5"))
    assert state.evaluate(0.0, 3.0) == []               # below threshold
    timeline = state.evaluate(0.25, 20.0)               # breach -> pending
    assert [r["state"] for r in timeline] == ["pending"]
    assert state.evaluate(0.5, 20.0) == []              # still holding
    records = state.evaluate(0.75, 20.0)                # held 0.5s -> firing
    assert [r["state"] for r in records] == ["firing"]
    assert state.firing
    timeline += records
    # Below threshold but above the clear level: hysteresis keeps firing.
    assert state.evaluate(1.0, 7.0) == []
    records = state.evaluate(1.25, 4.0)                 # <= clear -> resolved
    assert [r["state"] for r in records] == ["resolved"]
    timeline += records
    assert firings_from_timeline(timeline, 2.0) == [("r", 0.75, 1.25)]


def test_pending_cancelled_when_breach_ends_early():
    state = AlertState(parse_rule("r: s > 10 for 1"))
    timeline = state.evaluate(0.0, 11.0)
    records = state.evaluate(0.5, 9.0)
    assert [r["state"] for r in records] == ["cancelled"]
    assert firings_from_timeline(timeline + records, 1.0) == []
    assert not state.firing


def test_zero_hold_fires_immediately():
    state = AlertState(parse_rule("r: s > 1"))
    records = state.evaluate(0.0, 2.0)
    assert [r["state"] for r in records] == ["firing"]
    # Still open: the interval runs to the end of the run.
    assert firings_from_timeline(records, 1.0) == [("r", 0.0, 1.0)]


def test_less_than_rule_arms_only_after_activity():
    state = AlertState(parse_rule("r: s < 0.1 clear 0.5"))
    # The SLI never showed activity: a "rate fell to zero" rule must not
    # fire at the start of a run before the subsystem ever ran.
    assert state.evaluate(0.0, 0.0) == []
    assert state.evaluate(0.25, 0.0) == []
    assert state.evaluate(0.5, 0.9) == []   # reaches clear level: armed
    timeline = state.evaluate(0.75, 0.0)    # now a drop to zero fires
    assert [r["state"] for r in timeline] == ["firing"]
    records = state.evaluate(1.0, 0.8)      # recovery resolves
    assert [r["state"] for r in records] == ["resolved"]
    assert firings_from_timeline(timeline + records, 2.0) == [("r", 0.75, 1.0)]


def test_timeline_jsonl_is_stable_and_parseable():
    state = AlertState(parse_rule("r: s > 1 severity critical"))
    timeline = state.evaluate(0.5, 2.0) + state.evaluate(1.0, 0.5)
    text = timeline_jsonl(timeline)
    assert text.splitlines()[0] == (
        '{"alert":"r","severity":"critical","sli":"s",'
        '"state":"firing","t":0.5,"value":2.0}')
    assert [json.loads(line)["state"] for line in text.splitlines()] == [
        "firing", "resolved"]
