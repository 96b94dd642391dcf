"""Golden-master determinism tests.

The fixtures in ``tests/golden/golden.json`` were generated with the
pre-optimization engine (see ``tests/golden/regen.py``).  These tests
recompute every digest and model result with the current code: the
optimized hot path must produce byte-identical JSONL artifacts (engine
fire sequence, control-path trace, fault log, alert timeline) and
bit-identical model results on the same seeds.

A failure here means observable behaviour drifted.  If the drift is
*intended* (a deliberate semantic change, called out in the commit),
regenerate with ``PYTHONPATH=src python tests/golden/regen.py``;
otherwise it is a bug in whatever was just optimized.
"""

import json
import os

import pytest

from tests.golden import regen

pytestmark = pytest.mark.slow

GOLDEN_PATH = regen.GOLDEN_PATH


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail("tests/golden/golden.json missing — run "
                    "`PYTHONPATH=src python tests/golden/regen.py`")
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _assert_section(expected: dict, actual: dict, section: str) -> None:
    mismatches = []
    for key in expected:
        if key not in actual:
            mismatches.append(f"{section}.{key}: missing from recomputation")
        elif actual[key] != expected[key]:
            mismatches.append(
                f"{section}.{key}: fixture {expected[key]!r} != "
                f"recomputed {actual[key]!r}")
    assert not mismatches, (
        "golden-master drift (behaviour changed on a fixed seed):\n  "
        + "\n  ".join(mismatches)
        + "\nIf this change is intended, regenerate the fixtures with "
          "`PYTHONPATH=src python tests/golden/regen.py` and explain the "
          "drift in the commit message."
    )


def test_engine_fire_sequence_is_golden(golden):
    _assert_section(golden["engine"], regen.engine_workload(), "engine")


def test_trace_jsonl_is_byte_identical(golden, tmp_path):
    _assert_section(golden["traced_run"], regen.traced_run(str(tmp_path)),
                    "traced_run")


def test_chaos_fault_and_alert_jsonl_are_byte_identical(golden):
    _assert_section(golden["mini_chaos"], regen.mini_chaos(), "mini_chaos")


def test_pool_event_fault_and_scorecard_digests_are_golden(golden):
    _assert_section(golden["pool"], regen.pool_runs(), "pool")


def test_telemetry_scorecard_json_is_golden(golden):
    _assert_section(golden["telemetry"], regen.telemetry_card(), "telemetry")


def test_schema_versions_are_pinned(golden):
    _assert_section(golden["schemas"], regen.schema_versions(), "schemas")


def test_figure_runner_points_are_golden(golden, monkeypatch, quick_figure):
    # lb_run takes no sweep keywords, so its two points are exactly the
    # lb figure's --quick table: read the session's one run of it.
    from repro.testbed import experiments

    monkeypatch.setattr(experiments, "lb_run", lambda spray: quick_figure("lb")[spray])
    _assert_section(golden["figures"], regen.figure_points(), "figures")


def test_scale_and_wan_topologies_are_golden(golden):
    _assert_section(golden["topologies"], regen.topologies(), "topologies")
