"""The scenario -> run -> report spine (docs/architecture.md#scenario-spine).

Structure tests for the one runner, the one report type, the one
formatter and the one artifact writer, on the pool scenarios (control
plane only, so a full run takes a fraction of a second).  Behaviour
across the refactor is pinned elsewhere: the golden masters hold every
same-seed digest, the soak tests the outcomes.
"""

import json
import re
from pathlib import Path

import pytest

from repro.faults import (
    HTML,
    FaultPlan,
    RunReport,
    Scenario,
    format_report,
    run,
    scenarios,
    write_artifacts,
)
from repro.obs import Observability, get_default_obs, observed

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def pool_report():
    return run("pool_chaos", seed=1, health=True)


def test_registry_holds_the_five_scenarios():
    entries = scenarios()
    assert set(entries) == {"chaos", "pool_chaos", "pool_autoscale",
                            "telemetry_point", "scale"}
    for name, entry in entries.items():
        assert issubclass(entry, Scenario) and entry.name == name
        assert entry.duration > 0


def test_run_rejects_unknown_scenarios_and_keywords():
    with pytest.raises(KeyError):
        run("no_such_scenario")
    with pytest.raises(TypeError, match="attack_rate"):
        run("pool_chaos", attack_rate=5.0)  # a chaos knob, not a pool one
    with pytest.raises(ValueError):
        run("pool_chaos", duration=5.0)  # default plan needs >= 22 s


def test_report_carries_shared_fields_and_measures(pool_report):
    report = pool_report
    assert isinstance(report, RunReport)
    assert (report.scenario, report.seed, report.duration) == (
        "pool_chaos", 1, 24.0)
    # The build/run split every scenario now reports.
    assert report.run_events > 0 and report.run_wall > 0
    assert report.build_wall >= 0 and report.events_per_sec > 0
    # Shared fault / invariant / health fields.
    assert report.faults_injected == 3 and len(report.fault_log) == 6
    assert report.fault_log_jsonl.count("\n") == 5
    assert report.invariant_checks > 0 and report.violations == []
    assert report.scorecard is not None
    assert report.sli_series and report.truth
    assert not report.postmortem_enabled
    # Scenario measures read as attributes and as the dict.
    assert report.packet_ins_total == report.measures["packet_ins_total"] > 0
    assert report.healthy
    with pytest.raises(AttributeError, match="failure_post_recovery"):
        report.failure_post_recovery  # a chaos measure


def test_health_and_postmortem_only_observe():
    plain = run("pool_chaos", seed=2)
    watched = run("pool_chaos", seed=2, health=True, postmortem=True)
    assert plain.scorecard is None
    assert watched.postmortem_enabled and watched.postmortems
    assert watched.fault_log_jsonl == plain.fault_log_jsonl
    assert watched.pool_events_jsonl == plain.pool_events_jsonl
    assert watched.run_events >= plain.run_events  # daemon ticks only
    for name in ("packet_ins_total", "orphaned", "failover_windows",
                 "acked_master", "bus"):
        assert watched.measures[name] == plain.measures[name]
    contexts = {json.dumps(b["context"], sort_keys=True)
                for b in watched.postmortems}
    assert len(contexts) == 1
    context = watched.postmortems[0]["context"]
    assert context["scenario"] == "pool_chaos" and context["seed"] == 2
    assert context["rate_fps"] == 300.0


def test_private_metrics_context_is_restored():
    before = get_default_obs()
    run("pool_chaos", seed=1, health=True)
    assert get_default_obs() is before
    # An enabled outer registry is reused, not replaced.
    with observed(Observability(trace=False, metrics=True)) as outer:
        run("pool_chaos", seed=1, health=True)
        assert outer.metrics.counters


def test_no_default_plan_means_no_injector_or_checker():
    report = run("scale", seed=3, duration=1.0, host_vswitches=6, mesh=2,
                 tors=2, targets=2)
    assert report.fault_log == [] and report.invariant_checks == 0
    assert report.healthy
    text = format_report(report)
    assert "Scale report" in text and "fault class" not in text
    # ... but a caller's plan arms both.
    armed = run("scale", seed=3, duration=1.0, host_vswitches=6, mesh=2,
                tors=2, targets=2, plan=FaultPlan())
    assert armed.invariant_checks > 0
    assert armed.flows_started == report.flows_started


def test_one_formatter_renders_every_section(pool_report):
    text = format_report(pool_report)
    for needle in ("Pool chaos — seed 1, 24s, 3 controllers, 6 switches",
                   "Pool report", "pool_member_crash",
                   "Detection scorecard", "verdict: HEALTHY"):
        assert needle in text
    assert "Invariant violations" not in text


def test_write_artifacts_kinds_headers_and_order(pool_report, tmp_path):
    # Keys are the artifact table's kinds (HTML: the report's own page);
    # the files are written, and reported, in the order given.
    paths = {
        "pool_events": str(tmp_path / "events.jsonl"),
        "fault_log": str(tmp_path / "faults.jsonl"),
        "alert_timeline": str(tmp_path / "alerts.jsonl"),
        HTML: str(tmp_path / "health.html"),
        "scorecard": str(tmp_path / "card.json"),
        "postmortem": None,  # falsy paths are skipped
        "run_report": str(tmp_path / "report.json"),
    }
    lines = write_artifacts(pool_report, paths)
    assert [line.split(":")[0].split(" ->")[0] for line in lines] == [
        "pool events", "fault log", "alert timeline", "health report",
        "scorecard", f"wrote {paths['run_report']}"]
    assert lines[::-1] == write_artifacts(
        pool_report, dict(reversed(paths.items())))
    for kind in ("fault_log", "pool_events", "alert_timeline"):
        first, *rest = Path(paths[kind]).read_text().splitlines()
        assert json.loads(first) == {"type": "schema", "schema": kind,
                                     "version": 1}
        assert all(json.loads(line) for line in rest)
    assert (Path(paths["fault_log"]).read_text().split("\n", 1)[1]
            == pool_report.fault_log_jsonl + "\n")
    assert json.loads(Path(paths["scorecard"]).read_text())["rules"]
    assert Path(paths[HTML]).read_text().startswith("<!DOCTYPE")
    payload = json.loads(Path(paths["run_report"]).read_text())
    assert payload["scenario"] == "pool_chaos"
    assert payload["packet_ins_total"] == pool_report.packet_ins_total


def test_write_artifacts_rejects_what_the_run_cannot_provide(tmp_path):
    report = run("pool_chaos", seed=1)
    with pytest.raises(ValueError, match="health=True"):
        write_artifacts(report, {"scorecard": str(tmp_path / "c.json")})
    with pytest.raises(ValueError):
        write_artifacts(report, {"no_such_kind": str(tmp_path / "x")})
    assert list(tmp_path.iterdir()) == []
    # An empty alert-free log is still a valid (header-only) file.
    empty = run("pool_autoscale", seed=1, duration=3.0)
    write_artifacts(empty, {"fault_log": str(tmp_path / "f.jsonl")})
    assert len((tmp_path / "f.jsonl").read_text().splitlines()) == 1


# ----------------------------------------------------------------------
# "One path": the lifecycle objects are constructed in exactly one place
# ----------------------------------------------------------------------
def _call_sites(needle: str):
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if needle in line and not re.match(r"\s*(def|class) ", line):
                sites.append(f"{path.relative_to(SRC)}:{number}")
    return sites


@pytest.mark.parametrize("needle", [
    "Observability(trace=False, metrics=True)", "FaultInjector(",
    "InvariantChecker(", "HealthEngine(", "build_scorecard(",
    "PostmortemCollector(",
])
def test_lifecycle_objects_have_one_construction_site(needle):
    sites = _call_sites(needle)
    assert len(sites) == 1 and sites[0].startswith("faults/scenario.py"), sites


def test_cli_writes_no_artifact_itself():
    cli = (SRC / "cli.py").read_text()
    assert "write_jsonl(" not in cli and "schema_line(" not in cli
    assert cli.count("write_artifacts(") == 1
