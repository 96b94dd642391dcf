"""Tests for the command-line interface."""

import dataclasses
import importlib
import os

import pytest

from repro.cli import build_parser, main
from repro.testbed.experiments import FIGURES

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig 3" in out and "ablation" in out


def test_every_figure_is_listed_benched_and_committed(capsys, monkeypatch):
    """The table is the only list of figures: `list`, the bench's
    parameters and checks, and the committed tables all follow it."""
    assert len(FIGURES) == 13
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    monkeypatch.syspath_prepend(BENCH_DIR)
    bench = importlib.import_module("bench_figures")
    (parametrize,) = [mark for mark in bench.test_figure.pytestmark
                      if mark.name == "parametrize"]
    assert list(parametrize.args[1]) == list(FIGURES.values())
    assert set(bench.CHECKS) == set(FIGURES)
    for key, figure in FIGURES.items():
        assert f"fig {key} " in out and figure.description in out
        assert parametrize.kwargs["ids"](figure) == figure.name
        with open(os.path.join(BENCH_DIR, "output", f"{figure.name}.txt")) as handle:
            assert handle.readline().rstrip("\n") == figure.title.format(**figure.full)


def test_profiles_command(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    assert "Pica8 Pronto 3780" in out
    assert "Open vSwitch" in out


def test_fig9_quick(capsys):
    assert main(["fig", "9", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 9" in out
    assert "attempted rules/s" in out


def test_fig4_quick(capsys):
    assert main(["fig", "4", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Packet-In/s" in out


def test_unknown_figure_errors(capsys, monkeypatch):
    assert main(["fig", "99"]) == 2
    err = capsys.readouterr().err
    assert "unknown figure" in err
    assert all(key in err for key in FIGURES)

    # Only the lookup is guarded: a KeyError from inside a figure's run
    # is the runner's bug, not an unknown figure.
    def broken(*_args, **_kwargs):
        raise KeyError("inside the runner")

    monkeypatch.setitem(FIGURES, "9", dataclasses.replace(FIGURES["9"], runner=broken))
    with pytest.raises(KeyError, match="inside the runner"):
        main(["fig", "9", "--quick"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_chrome_trace_path_derivation():
    from repro.cli import chrome_trace_path

    assert chrome_trace_path("run.trace.jsonl") == "run.trace.chrome.json"
    assert chrome_trace_path("run.out") == "run.out.chrome.json"


def test_fig4_quick_with_observability(tmp_path, capsys):
    import json

    trace = tmp_path / "fig4.trace.jsonl"
    metrics = tmp_path / "fig4.metrics.jsonl"
    manifest = tmp_path / "fig4.manifest.json"
    assert main(["fig", "4", "--quick", "--trace", str(trace),
                 "--metrics", str(metrics), "--profile",
                 "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "Fig. 4" in out
    assert "Engine profile" in out
    # All three artifacts exist and parse.
    chrome = tmp_path / "fig4.trace.chrome.json"
    assert trace.exists() and metrics.exists() and chrome.exists()
    events = json.loads(chrome.read_text())["traceEvents"]
    assert any(e["ph"] == "X" and e["name"] == "packet_in" for e in events)
    loaded = json.loads(manifest.read_text())
    assert loaded["outputs"]["trace_jsonl"] == str(trace)
    assert loaded["command"][:3] == ["scotch-repro", "fig", "4"]
    # The trace survives its own inspector.
    assert main(["inspect", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "packet_in" in out and "p99 (ms)" in out
    # After the observed run, the process default is back to the no-op.
    from repro.obs import NULL_OBS, get_default_obs

    assert get_default_obs() is NULL_OBS


def test_inspect_missing_file_errors(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nope.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and "nope.jsonl" in err
    assert "trace" not in err  # it could have been any kind of file


def test_inspect_metrics_file(tmp_path, capsys):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("ofa.sw1.packet_ins").inc(7)
    registry.gauge("queue.depth").set(2.5)
    registry.histogram("lat", buckets=(1.0, 10.0)).observe(3.0)
    registry.sample(now=1.0)
    path = tmp_path / "m.metrics.jsonl"
    registry.export_jsonl(str(path))
    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Metrics summary" in out
    assert "ofa.sw1.packet_ins" in out and "counter" in out
    assert "Histograms" in out and "p99" in out
    assert "samples: 2" in out


def test_prom_flag_writes_text_format(tmp_path, capsys):
    prom = tmp_path / "fig9.prom"
    assert main(["fig", "9", "--quick", "--prom", str(prom)]) == 0
    out = capsys.readouterr().out
    assert "prometheus:" in out
    text = prom.read_text()
    assert "# TYPE scotch_" in text and "_total " in text


@pytest.mark.slow
def test_ablation_and_tcam_commands(capsys, cached_quick_figures):
    assert main(["ablation", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "scotch" in out and "proactive" in out
    assert main(["tcam", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "TABLE_FULL" in out


@pytest.mark.slow
def test_report_command_writes_markdown(tmp_path, cached_quick_figures):
    """Every table entry completes in --quick mode, `install_rate` and
    `lb` included; `fig KEY --quick` prints the same `figure.text`.
    (The quick results come from the session's one run of each sweep.)"""
    out = tmp_path / "REPORT.md"
    assert main(["report", "--quick", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# Scotch reproduction report")
    sections = text.split("\n## ")[1:]
    assert len(sections) == len(FIGURES)
    for (key, figure), section in zip(FIGURES.items(), sections):
        label = f"Figure {key}" if key.isdigit() else "Ablation"
        assert section.startswith(f"{label} — {figure.description}\n")
        assert figure.title.format(**figure.quick) in section
        assert all(column in section for column in figure.columns)


def test_chaos_rejects_short_durations(capsys):
    assert main(["chaos", "--duration", "10"]) == 2
    err = capsys.readouterr().err
    assert "duration" in err


def test_chaos_listed(capsys):
    assert main(["list"]) == 0
    assert "chaos" in capsys.readouterr().out


def test_chaos_no_health_rejects_health_outputs(tmp_path, capsys):
    assert main(["chaos", "--no-health",
                 "--alert-log", str(tmp_path / "a.jsonl")]) == 2
    assert "--no-health" in capsys.readouterr().err


def test_health_rejects_unreadable_rules_file(tmp_path, capsys):
    assert main(["chaos", "--rules", str(tmp_path / "nope.rules")]) == 2
    assert "cannot load alert rules" in capsys.readouterr().err


@pytest.fixture(scope="module")
def chaos_seed1_run(tmp_path_factory):
    """One seed-1 `chaos` run with every health output requested, shared
    by the recovery-side and health-side checks below."""
    import contextlib
    import io

    root = tmp_path_factory.mktemp("chaos_seed1")
    paths = {name: root / file for name, file in (
        ("fault_log", "faults.jsonl"), ("alert_log", "alerts.jsonl"),
        ("html", "health.html"), ("card", "scorecard.json"))}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["chaos", "--seed", "1",
                     "--fault-log", str(paths["fault_log"]),
                     "--alert-log", str(paths["alert_log"]),
                     "--health-report", str(paths["html"]),
                     "--scorecard-json", str(paths["card"])])
    return code, out.getvalue(), paths


@pytest.mark.slow
@pytest.mark.chaos
def test_chaos_command_full_run(chaos_seed1_run):
    """The recovery report and the fault log; the run exits 0 only when
    it recovered and detection is clean."""
    code, out, paths = chaos_seed1_run
    assert code == 0
    assert "Chaos run" in out and "Recovery report" in out
    assert "verdict: HEALTHY" in out
    lines = paths["fault_log"].read_text().strip().splitlines()
    assert len(lines) > 5


@pytest.mark.slow
@pytest.mark.chaos
def test_health_command_full_run(chaos_seed1_run):
    """The same run's health side: the SLI chart, the detection
    scorecard (printed once), the alert log, the page and the JSON."""
    import json

    code, out, paths = chaos_seed1_run
    assert code == 0
    assert "Health report" in out
    assert out.count("Detection scorecard — per fault class") == 1
    assert "-> OK" in out
    lines = paths["alert_log"].read_text().strip().splitlines()
    assert len(lines) > 5
    assert json.loads(lines[0])["schema"] == "alert_timeline"
    assert all(json.loads(line)["alert"] for line in lines[1:])
    assert paths["html"].read_text().startswith("<!DOCTYPE html")
    payload = json.loads(paths["card"].read_text())
    assert payload["recall"] == 1.0 and payload["precision"] == 1.0


# ----------------------------------------------------------------------
# Postmortem bundles and traces: `inspect --critpath/--html`
# ----------------------------------------------------------------------
def _chaos_bundle_dir(tmp_path):
    """A real (small) chaos run's exported postmortem bundles."""
    from repro.faults import FaultPlan, run
    from repro.obs.postmortem import export_bundles

    plan = FaultPlan()
    plan.channel_loss(1.5, "edge", duration=1.0, loss=0.08, duplicate=0.02,
                      jitter=0.004)
    plan.ofa_stall(3.0, "edge", duration=0.8)
    report = run("chaos", seed=3, duration=6.0, client_rate=50.0,
                 attack_rate=600.0, plan=plan, health=True,
                 postmortem=True)
    assert report.postmortems
    return export_bundles(report.postmortems, str(tmp_path / "pm"))


def test_inspect_bundle_writes_critpath_and_html(tmp_path, capsys):
    import json

    paths = _chaos_bundle_dir(tmp_path)
    jsonl = tmp_path / "critpath.jsonl"
    html = tmp_path / "postmortem.html"
    assert main(["inspect", paths[0],
                 "--critpath", str(jsonl), "--html", str(html)]) == 0
    out = capsys.readouterr().out
    assert "Postmortem bundle" in out
    assert "Causal ancestry" in out
    assert "ancestry:" in out and "flight:" in out
    assert f"critical-path report -> {jsonl}" in out
    lines = [json.loads(line)
             for line in jsonl.read_text().strip().splitlines()]
    assert lines[0] == {"type": "schema", "schema": "critpath", "version": 1}
    assert lines[1]["type"] == "critpath_summary"
    # The page is the printed summary: the same sections, as HTML.
    page = html.read_text()
    assert page.startswith("<!DOCTYPE html>")
    assert "Postmortem bundle" in page and "Causal ancestry" in page
    assert "latency attribution" in page


def test_inspect_sniffs_postmortem_bundle(tmp_path, capsys):
    paths = _chaos_bundle_dir(tmp_path)
    assert main(["inspect", paths[0]]) == 0
    out = capsys.readouterr().out
    assert "Postmortem bundle" in out


def test_inspect_critpath_needs_spans(tmp_path, capsys):
    from repro.obs.metrics import MetricsRegistry

    path = tmp_path / "m.metrics.jsonl"
    MetricsRegistry().export_jsonl(str(path))
    out = tmp_path / "cp.jsonl"
    assert main(["inspect", str(path), "--critpath", str(out)]) == 2
    captured = capsys.readouterr()
    assert "metrics" in captured.err and "--critpath" in captured.err
    assert captured.out == "" and not out.exists()
    assert main(["inspect", str(tmp_path / "nope.jsonl"),
                 "--critpath", str(out)]) == 2
    # Without --critpath the same file is an ordinary inspect.
    assert main(["inspect", str(path)]) == 0


def test_inspect_attributes_a_plain_trace(tmp_path, capsys):
    """Every trace is causal: a plain `--trace` run's file gets the
    latency attribution, the critical-path report and the page."""
    trace = tmp_path / "fig4.trace.jsonl"
    assert main(["fig", "4", "--quick", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "Packet-In latency attribution" in out
    assert "ofa.queue" in out and "(unattributed)" in out
    assert "reconciliation max gap" in out
    critpath, html = tmp_path / "cp.jsonl", tmp_path / "cp.html"
    assert main(["inspect", str(trace), "--critpath", str(critpath),
                 "--html", str(html)]) == 0
    capsys.readouterr()
    assert "Longest chain" in html.read_text()
    assert main(["inspect", str(critpath)]) == 0
    assert "Critical-path report" in capsys.readouterr().out


def test_inspect_fault_log_and_alert_timeline(tmp_path, capsys):
    import json

    fault_log = tmp_path / "faults.jsonl"
    with open(fault_log, "w") as handle:
        handle.write(json.dumps({"type": "schema", "schema": "fault_log",
                                 "version": 1}) + "\n")
        handle.write(json.dumps({"t": 1.0, "kind": "ofa_stall",
                                 "target": "edge", "phase": "inject"}) + "\n")
        handle.write(json.dumps({"t": 2.0, "kind": "ofa_stall",
                                 "target": "edge", "phase": "clear"}) + "\n")
    assert main(["inspect", str(fault_log)]) == 0
    out = capsys.readouterr().out
    assert "Fault log" in out and "ofa_stall" in out and "actions: 2" in out

    timeline = tmp_path / "alerts.jsonl"
    with open(timeline, "w") as handle:
        handle.write(json.dumps({"type": "schema", "schema": "alert_timeline",
                                 "version": 1}) + "\n")
        handle.write(json.dumps({"t": 1.0, "alert": "hot",
                                 "state": "firing"}) + "\n")
    assert main(["inspect", str(timeline)]) == 0
    out = capsys.readouterr().out
    assert "Alert timeline" in out and "hot" in out and "transitions: 1" in out


# ----------------------------------------------------------------------
# Scenario commands: flags are validated before anything runs
# ----------------------------------------------------------------------
def test_pool_rejects_short_durations(capsys):
    assert main(["pool", "--duration", "10"]) == 2
    assert "duration" in capsys.readouterr().err


def test_pool_scorecard_json_needs_health_before_running(tmp_path, capsys):
    card = tmp_path / "card.json"
    events = tmp_path / "events.jsonl"
    assert main(["pool", "--scorecard-json", str(card),
                 "--events", str(events)]) == 2
    captured = capsys.readouterr()
    assert "--health" in captured.err
    # Nothing ran: no report on stdout, no artifact on disk.
    assert captured.out == ""
    assert not card.exists() and not events.exists()


def test_pool_autoscale_rejects_health_flags(capsys):
    assert main(["pool", "--autoscale", "--health"]) == 2
    assert "--autoscale" in capsys.readouterr().err


def test_telemetry_rejects_bad_periods(capsys):
    assert main(["telemetry", "--periods", "x"]) == 2
    assert "--periods" in capsys.readouterr().err
    assert main(["telemetry", "--periods", "0"]) == 2
    assert "--periods" in capsys.readouterr().err


@pytest.mark.parametrize("interval", ["-1", "0"])
def test_sample_interval_must_be_positive(interval, tmp_path, capsys):
    metrics = tmp_path / "m.jsonl"
    assert main(["fig", "9", "--quick", "--metrics", str(metrics),
                 "--sample-interval", interval]) == 2
    assert "--sample-interval" in capsys.readouterr().err
    assert not metrics.exists()


def test_scale_json_round_trip(tmp_path, capsys):
    import json

    path = tmp_path / "scale.json"
    assert main(["scale", "--host-vswitches", "8", "--mesh", "2",
                 "--tors", "2", "--targets", "2", "--duration", "1.5",
                 "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Scale report" in out and f"wrote {path}" in out
    payload = json.loads(path.read_text())
    assert payload["scenario"] == "scale" and payload["seed"] == 1
    assert payload["vswitches"] == 10 and payload["mesh"] == 2
    assert payload["flows_started"] > 0
    assert payload["run_events"] > 0 and payload["run_wall"] > 0
    assert str(payload["flows_started"]) in out


def test_scale_rejects_bad_sizes_and_modes(capsys):
    assert main(["scale", "--host-vswitches", "0", "--mesh", "1"]) == 2
    assert main(["scale", "--sampling-period", "0"]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--mesh", "1"], ["--tors", "0"],
                                   ["--crowd-multiplier", "0.5"]])
def test_scale_states_one_size_rule(flags, capsys):
    """Flags the scale builder rejects are refused up front: one line on
    stderr and exit 2, not a traceback from the build."""
    assert main(["scale", *flags]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_list_shows_every_registered_scenario(capsys):
    from repro.cli import RUN_COMMANDS
    from repro.faults import scenarios

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in scenarios():
        assert name in out
    for command in RUN_COMMANDS:
        assert f"\n{command} " in out
    # Every entry is reachable from a command (none listed as unclaimed).
    claimed = {s for spec in RUN_COMMANDS.values() for s in spec.scenarios}
    assert claimed == set(scenarios())


# The flag sets of the parent's hand-written subparsers: the registry-
# driven parser must expose exactly these (no flag added or lost).
_OBS = {"--trace", "--metrics", "--prom", "--sample-interval", "--profile",
        "--manifest"}
_HEALTH_OUT = {"--rules", "--alert-log", "--health-report",
               "--scorecard-json", "--postmortem-dir"}
_CHAOS = {"--seed", "--duration", "--client-rate", "--attack-rate"}
EXPECTED_FLAGS = {
    "chaos": (_CHAOS | {"--fault-log", "--no-faults", "--no-health",
                        "--tolerance"} | _HEALTH_OUT | _OBS),
    "pool": {"--seed", "--duration", "--controllers", "--switches", "--rate",
             "--autoscale", "--health", "--events", "--fault-log",
             "--scorecard-json"},
    "telemetry": {"--seed", "--duration", "--attack-rate", "--elephants",
                  "--mice", "--periods", "--hybrid", "--json", "--html"},
    "scale": {"--seed", "--host-vswitches", "--mesh", "--tors", "--targets",
              "--duration", "--base-rate", "--crowd-multiplier",
              "--stats-mode", "--sampling-period", "--json"} | _OBS,
}


@pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
def test_scenario_command_flag_sets_are_unchanged(command, capsys):
    import re

    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert shown - {"--help"} == EXPECTED_FLAGS[command]
