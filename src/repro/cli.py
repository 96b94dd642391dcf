"""Command-line interface: run demos and regenerate the paper's figures.

Installed as ``scotch-repro`` (or run via ``python -m repro.cli``)::

    scotch-repro list                 # what can be run
    scotch-repro profiles             # the calibrated switch models
    scotch-repro fig 3                # regenerate a figure's table
    scotch-repro fig 13 --quick       # smaller/faster variant
    scotch-repro fig install_rate     # ... or an ablation's
    scotch-repro ablation             # = fig ablation: Scotch vs the §4 baselines
    scotch-repro tcam                 # = fig tcam: the §3.3 TCAM bottleneck
    scotch-repro chaos --seed 3       # fault injection, recovery + detection report
    scotch-repro report -o REPORT.md  # every figure + ablation, one file

Every run command also takes the observability flags (docs/observability.md)::

    scotch-repro fig 3 --quick --trace fig3.trace.jsonl --metrics fig3.metrics.jsonl
    scotch-repro inspect fig3.trace.jsonl   # per-stage p50/p99 + latency attribution

``inspect`` reads back every file a run writes; for a trace or a
postmortem bundle it also writes the critical-path report
(``--critpath OUT``), and it renders any summary as a page (``--html``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import peak_live_members
from repro.core.config import ScotchConfig
from repro.faults import (
    HTML,
    FaultPlan,
    default_plan,
    format_report,
    run,
    scenarios,
    write_artifacts,
)
from repro.obs.artifacts import ARTIFACTS, sniff_kind
from repro.obs.critpath import attribute, longest_chain, report_jsonl
from repro.obs.report import format_table, render_html, render_text
from repro.obs.scorecard import health_sections
from repro.telemetry.scorecard import run_telemetry_scorecard
from repro.testbed.experiments import FIGURES

#: Figure keys that are also subcommands of their own.
FIGURE_COMMANDS = ("ablation", "tcam")


def _print(text: str) -> None:
    print(text)
    print()


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_list(_args) -> int:
    rows = [[f"fig {key}", figure.description] for key, figure in FIGURES.items()]
    rows += [[key, f"same as `fig {key}`"] for key in FIGURE_COMMANDS]
    rows.append(["report", "run everything, write one markdown report"])
    # The scenario commands come from the registry: each command names
    # the entries it runs, and an entry no command claims yet still
    # shows (it is runnable as repro.faults.run(name)).
    rows += [[name, f"{spec.help} [{', '.join(spec.scenarios)}]"]
             for name, spec in RUN_COMMANDS.items()]
    claimed = {name for spec in RUN_COMMANDS.values() for name in spec.scenarios}
    rows += [[f"({name})", f"scenario without a command: faults.run({name!r})"]
             for name in scenarios() if name not in claimed]
    rows.append(["profiles", "calibrated switch models"])
    _print(format_table(["target", "description"], rows, title="Available runs"))
    return 0


def cmd_profiles(_args) -> int:
    from repro.switch.profiles import HP_PROCURVE_6600, OPEN_VSWITCH, PICA8_PRONTO_3780

    rows = []
    for profile in (PICA8_PRONTO_3780, HP_PROCURVE_6600, OPEN_VSWITCH):
        rows.append([
            profile.name,
            profile.packet_in_rate,
            profile.install_lossless_rate,
            profile.install_saturated_rate,
            profile.degradation_knee,
            profile.tcam_capacity,
        ])
    _print(format_table(
        ["switch", "Packet-In/s", "lossless ins/s", "saturated ins/s",
         "degrade knee", "TCAM"],
        rows,
        title="Calibrated device models (provenance: DESIGN.md §7)",
    ))
    return 0


def cmd_fig(args) -> int:
    figure = FIGURES.get(args.key)
    if figure is None:
        print(f"unknown figure {args.key!r}; try: {', '.join(FIGURES)}",
              file=sys.stderr)
        return 2
    _print(figure.text(args.quick))
    return 0


# ----------------------------------------------------------------------
# Scenario commands: one body, one table entry per command
# ----------------------------------------------------------------------
def _load_rules(path: Optional[str]):
    """Parse an alert-rule file (docs/observability.md#alert-rules);
    None means the built-in rule set."""
    if not path:
        return None
    from repro.obs.rules import parse_rules

    try:
        with open(path) as handle:
            return parse_rules(handle.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load alert rules: {exc}") from None


def _chaos_request(args) -> Dict[str, Any]:
    """The chaos scenario: the default fault timeline (or none, with
    --no-faults), graded by the health engine unless --no-health."""
    if args.duration < 16.0:
        raise ValueError(
            "chaos needs --duration >= 16 (the chaos scenario's default "
            "fault timeline ends at 12.5s and the report wants a clean "
            "recovery window)")
    if args.no_health and (args.alert_log or args.health_report
                           or args.scorecard_json or args.rules):
        raise ValueError("--alert-log/--health-report/--scorecard-json/"
                         "--rules need the health engine (drop --no-health)")
    return dict(
        scenario="chaos",
        duration=args.duration,
        plan=FaultPlan() if args.no_faults else default_plan(args.duration),
        health=not args.no_health,
        rules=_load_rules(args.rules),
        detection_tolerance=args.tolerance,
        postmortem=bool(args.postmortem_dir),
    )


def _pool_request(args) -> Dict[str, Any]:
    if args.autoscale:
        if args.health or args.scorecard_json:
            raise ValueError("--health/--scorecard-json grade the chaos "
                             "gauntlet (drop --autoscale)")
        return dict(scenario="pool_autoscale")
    if args.duration < 22.0:
        raise ValueError("pool chaos needs --duration >= 22 (the default "
                         "fault timeline ends at 18s and the report wants "
                         "a clean recovery window)")
    if args.scorecard_json and not args.health:
        raise ValueError("--scorecard-json needs --health")
    return dict(scenario="pool_chaos", duration=args.duration,
                health=args.health)


def _telemetry_request(args) -> Dict[str, Any]:
    try:
        periods = tuple(int(p) for p in args.periods.split(",") if p)
    except ValueError:
        raise ValueError("--periods wants comma-separated integers, got "
                         f"{args.periods!r}") from None
    if not periods or any(p < 1 for p in periods):
        raise ValueError("--periods needs at least one period >= 1")
    return dict(duration=args.duration, periods=periods,
                include_hybrid=args.hybrid)


def _scale_request(args) -> Dict[str, Any]:
    scenarios()["scale"].check(args.duration, vars(args))
    return dict(scenario="scale", duration=args.duration,
                config=ScotchConfig(stats_mode=args.stats_mode,
                                    sampling_period=args.sampling_period))


Verdict = Tuple[Optional[str], bool]


def _present_report(report, _args) -> Verdict:
    """Exit 0 iff the run is healthy by its scenario's own definition
    (chaos: no invariant violations and post-recovery failure < 5%;
    pool: no violations, no double installs, every switch mastered;
    scale: always)."""
    _print(format_report(report))
    return None, report.healthy


def _present_pool(report, args) -> Verdict:
    verdict = _present_report(report, args)
    if args.autoscale:
        print(f"autoscale: peak {peak_live_members(report)} members, "
              f"final {report.members_live}")
    return verdict


def _present_chaos(report, args) -> Verdict:
    """Exit 0 iff the run is healthy (see _present_report) and, with the
    health engine on, every fault class was detected with no false
    positives (with --no-faults: iff there were no false positives)."""
    _, healthy = _present_report(report, args)
    card = report.scorecard
    if card is None:
        return None, healthy
    # The health page's SLI chart; the scorecard is already in the report.
    _print(render_text(health_sections(
        report.sli_series, report.alert_timeline, report.duration,
        report.truth)))
    detected = args.no_faults or card.all_detected
    ok = detected and card.clean
    return (f"detection: recall {card.recall:.2f}  precision "
            f"{card.precision:.2f}  false positives "
            f"{len(card.false_positives)}  -> "
            f"{'OK' if ok else 'NOISY' if detected else 'MISSED'}",
            healthy and ok)


def _present_telemetry(card, _args) -> Verdict:
    """Exit 0 iff every run kept elephant-detection recall >= 0.9."""
    _print(render_text(card.page()[1]))
    worst = min((point.recall for point in card.runs), default=1.0)
    return (f"telemetry: worst recall {worst:.2f} across {len(card.runs)} "
            f"runs -> {'OK' if worst >= 0.9 else 'DEGRADED'}", worst >= 0.9)


Flag = Tuple[str, Dict[str, Any]]


def _flag(option: str, **keywords: Any) -> Flag:
    """One row of a command's flag table (``add_argument`` keywords)."""
    return option, keywords


def _knob(scenario: str, knob: str, help: str,
          option: Optional[str] = None) -> Flag:
    """A flag that sets one scenario keyword: dest, type and default come
    from the registry entry, so the CLI cannot drift from the library."""
    default = scenarios()[scenario].knobs[knob]
    option = option or "--" + knob.replace("_", "-")
    return _flag(option, dest=knob, type=type(default), default=default,
                 metavar=option[2:].replace("-", "_").upper(), help=help)


def _duration(scenario: str, help: str) -> Flag:
    return _flag("--duration", type=float,
                 default=scenarios()[scenario].duration, help=help)


_SEED = _flag("--seed", type=int, default=1)
#: argparse dest -> artifact kind for the _add_obs_flags files, and for
#: `inspect --critpath`.
OBS_ARTIFACTS = {"trace": "trace", "metrics": "metrics",
                 "manifest": "manifest"}
INSPECT_ARTIFACTS = {"critpath": "critpath"}


@dataclass(frozen=True)
class RunCommand:
    """One scenario-running subcommand.  ``cmd_run`` is the body they
    all share; an entry holds only what differs."""

    help: str
    #: Registered scenario entries this command can run (first: default).
    scenarios: Tuple[str, ...]
    #: The command's own flags (the observability group is added per
    #: ``obs_flags`` below).
    flags: Sequence[Flag]
    #: Validate the parsed flags and return the ``runner`` keywords that
    #: are not plain knobs (``scenario`` picks the entry); a ValueError
    #: is printed and exits 2 *before* anything runs.
    request: Callable[[Any], Dict[str, Any]]
    #: argparse dest -> artifact kind (repro.obs.artifacts.ARTIFACTS), or
    #: HTML for the report's own page; written in this order.
    artifacts: Dict[str, str]
    #: Print the report; return (closing line or None, exit-0?).
    present: Callable[[Any, Any], Verdict] = _present_report
    runner: Callable[..., Any] = run
    obs_flags: bool = False


RUN_COMMANDS: Dict[str, RunCommand] = {
    "chaos": RunCommand(
        help="deterministic fault-injection run: recovery report, SLIs "
             "and alert scorecard (docs/robustness.md)",
        scenarios=("chaos",),
        flags=[
            _SEED,
            _duration("chaos", "simulated seconds (>= 16)"),
            _knob("chaos", "client_rate", "legitimate new flows per second"),
            _knob("chaos", "attack_rate",
                  "spoofed flood rate keeping the overlay active"),
            _flag("--fault-log", metavar="FILE",
                  help="write the deterministic fault log (JSONL); "
                       "byte-identical across runs with equal seeds"),
            _flag("--no-faults", action="store_true",
                  help="fault-free baseline: keep traffic and rules but "
                       "inject nothing; detection passes iff zero false "
                       "positives"),
            _flag("--no-health", action="store_true",
                  help="skip the streaming health engine and the detection "
                       "scorecard (exit status: recovery only)"),
            _flag("--tolerance", type=float, default=1.0,
                  help="detection-latency tolerance (s) when joining alerts "
                       "to truth windows"),
            _flag("--rules", metavar="FILE",
                  help="alert-rule file (docs/observability.md#alert-rules); "
                       "default: built-in rules"),
            _flag("--alert-log", metavar="FILE",
                  help="write the deterministic alert timeline (JSONL); "
                       "byte-identical across runs with equal seeds"),
            _flag("--health-report", metavar="FILE",
                  help="write a self-contained HTML health report (SLI time "
                       "series with alert/truth bands)"),
            _flag("--scorecard-json", metavar="FILE",
                  help="write the detection scorecard as JSON"),
            _flag("--postmortem-dir", metavar="DIR",
                  help="capture a postmortem bundle (causal ancestry, "
                       "flight-recorder window, active alert/fault context) "
                       "on every alert firing / invariant violation and "
                       "write them under DIR; byte-identical across runs "
                       "with equal seeds"),
        ],
        request=_chaos_request,
        artifacts={"fault_log": "fault_log", "alert_log": "alert_timeline",
                   "health_report": HTML, "scorecard_json": "scorecard",
                   "postmortem_dir": "postmortem"},
        present=_present_chaos,
        obs_flags=True),
    "pool": RunCommand(
        help="elastic controller pool: chaos gauntlet or autoscale demo "
             "(docs/cluster.md)",
        scenarios=("pool_chaos", "pool_autoscale"),
        flags=[
            _SEED,
            _duration("pool_chaos",
                      "simulated seconds (>= 22; chaos mode only)"),
            _knob("pool_chaos", "controllers",
                  "pool size for the chaos gauntlet (default 3)"),
            _knob("pool_chaos", "switches", "managed switches (default 6)"),
            _knob("pool_chaos", "rate_fps",
                  "Packet-In rate driven at the pool (default 300)", "--rate"),
            _flag("--autoscale", action="store_true",
                  help="run the flash-crowd autoscale demo instead of the "
                       "chaos gauntlet"),
            _flag("--health", action="store_true",
                  help="run the health engine with the pool alert rules and "
                       "print the detection scorecard (chaos mode)"),
            _flag("--events", metavar="FILE",
                  help="write the pool event log (JSONL); byte-identical "
                       "across runs with equal seeds"),
            _flag("--fault-log", metavar="FILE",
                  help="write the deterministic fault log (JSONL)"),
            _flag("--scorecard-json", metavar="FILE",
                  help="write the detection scorecard as JSON (needs "
                       "--health)"),
        ],
        request=_pool_request,
        artifacts={"events": "pool_events", "fault_log": "fault_log",
                   "scorecard_json": "scorecard"},
        present=_present_pool),
    "telemetry": RunCommand(
        help="sampled-telemetry accuracy/overhead scorecard "
             "(docs/observability.md#sampled-telemetry)",
        scenarios=("telemetry_point",),
        flags=[
            _SEED,
            _duration("telemetry_point", "simulated seconds (default 8)"),
            _knob("telemetry_point", "attack_rate",
                  "spoofed flood rate keeping the overlay active "
                  "(default 800)"),
            _knob("telemetry_point", "elephants",
                  "injected ground-truth elephants (default 8)"),
            _knob("telemetry_point", "mice",
                  "decoy mid-size flows (default 10)"),
            _flag("--periods", default="10",
                  help="comma-separated sampling periods N (1-in-N), one "
                       "sample run each (default: 10)"),
            _flag("--hybrid", action="store_true",
                  help="also run hybrid mode (sampling + slow safety-net "
                       "polls) at the first period"),
            _flag("--json", metavar="FILE",
                  help="write the scorecard as canonical JSON"),
            _flag("--html", metavar="FILE",
                  help="write a self-contained HTML scorecard"),
        ],
        request=_telemetry_request,
        artifacts={"json": "telemetry_scorecard", "html": HTML},
        present=_present_telemetry,
        runner=run_telemetry_scorecard),
    "scale": RunCommand(
        help="500+-vSwitch overlay flash crowd (engine throughput: "
             "events/sec, wall time per phase, client impact)",
        scenarios=("scale",),
        flags=[
            _SEED,
            _knob("scale", "host_vswitches",
                  "host vSwitches (one idle tenant rack slice each; "
                  "default 480)"),
            _knob("scale", "mesh",
                  "mesh vSwitches in the overlay core (default 24)"),
            _knob("scale", "tors", "physical ToR switches (default 8)"),
            _knob("scale", "targets",
                  "flash-crowd service servers (default 16)"),
            _duration("scale", "simulated seconds (default 5)"),
            _knob("scale", "base_rate_fps",
                  "per-target new-flow rate before the crowd (flows/s, "
                  "default 20)", "--base-rate"),
            _knob("scale", "crowd_multiplier",
                  "rate multiplier during the crowd window (default 10)"),
            _flag("--stats-mode", default="poll",
                  choices=("poll", "sample", "hybrid", "off"),
                  help="flow measurement mode (default poll); with "
                       "--metrics, monitoring-cost counters land in the "
                       "result extras"),
            _flag("--sampling-period", type=int, default=10,
                  help="1-in-N packet sampling period for sample/hybrid "
                       "modes (default 10)"),
            _flag("--json", metavar="FILE",
                  help="write the full run report as JSON"),
        ],
        request=_scale_request,
        artifacts={"json": "run_report"},
        obs_flags=True),
}


def cmd_run(args) -> int:
    """The body of every scenario command: validate the flags, run,
    show the report, write the requested artifacts, give the verdict."""
    spec = RUN_COMMANDS[args.command]
    try:
        keywords = spec.request(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # Every flag whose dest is a knob of the chosen scenario passes
    # straight through.
    entry = scenarios()[keywords.get("scenario", spec.scenarios[0])]
    keywords.update({knob: getattr(args, knob) for knob in entry.knobs
                     if hasattr(args, knob)})
    report = spec.runner(seed=args.seed, **keywords)
    line, ok = spec.present(report, args)
    for written in write_artifacts(report, {
            kind: getattr(args, dest) for dest, kind in spec.artifacts.items()}):
        print(written)
    if line:
        print(line)
    return 0 if ok else 1


class InspectRequestError(Exception):
    """An ``inspect`` output the file's kind cannot give."""


def _inspect_outputs(args, entry, sections) -> Dict[str, Tuple[str, str]]:
    """path -> (text, line to print) of each file ``inspect`` was asked
    to write; built before anything prints, so a refused request exits
    2 with nothing written."""
    outputs = {}
    if args.critpath:
        if entry.spans is None:
            raise InspectRequestError(
                f"{args.file} is a {entry.kind} file; --critpath wants "
                "control-path spans (a trace or a postmortem bundle)")
        spans = entry.spans(args.file)
        outputs[args.critpath] = (
            report_jsonl(attribute(spans), longest_chain(spans)),
            ARTIFACTS[INSPECT_ARTIFACTS["critpath"]].summary.format(
                path=args.critpath))
    if args.html:
        outputs[args.html] = (render_html(f"inspect — {args.file}", sections),
                              f"inspect page -> {args.html}")
    return outputs


def cmd_inspect(args) -> int:
    """Summarize any artifact the CLI writes (the kinds of
    repro.obs.artifacts.ARTIFACTS), told apart by its schema header or
    its keys; optionally also write the critical-path report and the
    summary as a page."""
    try:
        entry = ARTIFACTS[sniff_kind(args.file)]
        sections = entry.sections(args.file)
        outputs = _inspect_outputs(args, entry, sections)
    except InspectRequestError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"not an artifact this version reads: {args.file} ({exc})",
              file=sys.stderr)
        return 2
    print(render_text(sections))
    for path, (text, line) in outputs.items():
        with open(path, "w") as handle:
            handle.write(text)
        print(line)
    return 0


def cmd_report(args) -> int:
    """Run every figure + ablation and write one markdown report."""
    sections: List[str] = [
        "# Scotch reproduction report",
        "",
        "Generated by `scotch-repro report" + (" --quick" if args.quick else "") + "`.",
        "Shapes (orderings, knees, scaling) are the reproduction target;",
        "see EXPERIMENTS.md for paper-vs-measured discussion.",
        "",
    ]
    for key, figure in FIGURES.items():
        print(f"running fig {key} ({figure.description}) ...", flush=True)
        label = f"Figure {key}" if key.isdigit() else "Ablation"
        sections += [f"## {label} — {figure.description}", "",
                     "```", figure.text(args.quick), "```", ""]
    with open(args.output, "w") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {args.output}")
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(obs_capable=True)
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="FILE",
        help="record a causal control-path trace (span, event and journey "
             "ids: `inspect` attributes Packet-In latency per stage); "
             "writes FILE (JSONL) plus a Chrome trace_event twin (open in "
             "chrome://tracing / Perfetto)")
    group.add_argument(
        "--metrics", metavar="FILE",
        help="record counters/gauges/histograms to FILE (JSONL)")
    group.add_argument(
        "--prom", metavar="FILE",
        help="also write final instrument states to FILE in the "
             "Prometheus text exposition format (implies metrics "
             "collection)")
    group.add_argument(
        "--sample-interval", type=float, default=None, metavar="SEC",
        help="with --metrics: also sample every gauge/counter each SEC "
             "simulation seconds (adds daemon events to the calendar)")
    group.add_argument(
        "--profile", action="store_true",
        help="profile the engine (per-callback wall time, heap depth) "
             "and print the hot-callback table")
    group.add_argument(
        "--manifest", metavar="FILE",
        help="write a reproducibility manifest (command, seed, config, "
             "switch profiles, output paths) to FILE")


def chrome_trace_path(trace_path: str) -> str:
    """`x.trace.jsonl` -> `x.trace.chrome.json` (else just append)."""
    if trace_path.endswith(".jsonl"):
        return trace_path[: -len(".jsonl")] + ".chrome.json"
    return trace_path + ".chrome.json"


def _wants_obs(args) -> bool:
    return getattr(args, "obs_capable", False) and bool(
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or getattr(args, "prom", None)
        or getattr(args, "profile", False)
        or getattr(args, "manifest", None)
    )


def _run_observed(args, argv: Optional[List[str]]) -> int:
    """Run ``args.func`` with a live Observability installed as the
    process default (so experiment runners that build their own
    simulators are instrumented too), then export what was asked for."""
    from repro.obs import Observability, observed

    obs = Observability(
        trace=bool(args.trace),
        metrics=bool(args.metrics or args.prom),
        profile=args.profile,
        sample_interval=args.sample_interval,
    )
    with observed(obs):
        status = args.func(args)

    def written(dest: str, count: int = 0) -> str:
        return ARTIFACTS[OBS_ARTIFACTS[dest]].summary.format(
            count=count, path=getattr(args, dest))

    if args.trace:
        line = written("trace", obs.tracer.export_jsonl(args.trace))
        chrome = chrome_trace_path(args.trace)
        events = obs.tracer.export_chrome(chrome)
        print(f"{line}; {events} Chrome events -> {chrome}")
    if args.metrics:
        print(written("metrics", obs.metrics.export_jsonl(args.metrics)))
    if args.prom:
        lines = obs.metrics.export_prometheus(args.prom)
        print(f"prometheus: {lines} lines -> {args.prom}")
    if args.profile and obs.profiler is not None:
        print()
        _print(format_table(
            ["callback", "events", "total (ms)", "mean (us)", "max (us)"],
            obs.profiler.report_rows(top=15),
            title="Engine profile — hottest callbacks",
        ))
        print(f"profile: {obs.profiler.summary()}")
    if args.manifest:
        from repro.obs.manifest import build_manifest, write_manifest
        from repro.switch.profiles import (
            HP_PROCURVE_6600,
            OPEN_VSWITCH,
            PICA8_PRONTO_3780,
        )

        manifest = build_manifest(
            command=["scotch-repro"] + list(argv if argv is not None else sys.argv[1:]),
            seed=getattr(args, "seed", None),
            config=ScotchConfig(),
            profiles=[PICA8_PRONTO_3780, HP_PROCURVE_6600, OPEN_VSWITCH],
            trace_path=args.trace,
            chrome_trace_path=chrome_trace_path(args.trace) if args.trace else None,
            metrics_path=args.metrics,
            extra={"simulators": obs.runs, "exit_status": status},
        )
        write_manifest(args.manifest, manifest)
        print(written("manifest"))
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scotch-repro",
        description="Scotch (CoNEXT 2014) reproduction: demos and figure runners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available runs").set_defaults(func=cmd_list)
    sub.add_parser("profiles", help="show calibrated switch models").set_defaults(
        func=cmd_profiles)

    fig = sub.add_parser("fig", help="regenerate one paper figure or ablation")
    fig.add_argument("key", help=f"which one ({','.join(FIGURES)})")
    figure_commands = [fig]
    for key in FIGURE_COMMANDS:
        shorthand = sub.add_parser(key, help=FIGURES[key].description)
        shorthand.set_defaults(key=key)
        figure_commands.append(shorthand)
    for command in figure_commands:
        command.add_argument("--quick", action="store_true",
                             help="smaller, faster variant")
        _add_obs_flags(command)
        command.set_defaults(func=cmd_fig)

    report = sub.add_parser("report", help="run everything, write a markdown report")
    report.add_argument("--quick", action="store_true")
    report.add_argument("-o", "--output", default="REPORT.md")
    _add_obs_flags(report)
    report.set_defaults(func=cmd_report)

    for name, spec in RUN_COMMANDS.items():
        command = sub.add_parser(name, help=spec.help)
        for option, keywords in spec.flags:
            command.add_argument(option, **keywords)
        if spec.obs_flags:
            _add_obs_flags(command)
        command.set_defaults(func=cmd_run)

    inspect = sub.add_parser(
        "inspect",
        help="summarize any JSON/JSONL file a run wrote: "
             + ", ".join(ARTIFACTS).replace("_", " "))
    inspect.add_argument("file", help="an artifact (docs/observability.md"
                                      "#artifacts)")
    inspect.add_argument("--critpath", metavar="OUT",
                         help="write the critical-path report (JSONL) of a "
                              "trace or postmortem bundle")
    inspect.add_argument("--html", metavar="OUT",
                         help="write the summary as a self-contained HTML page")
    inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    interval = getattr(args, "sample_interval", None)
    if interval is not None and interval <= 0:
        print(f"--sample-interval must be positive, not {interval:g}",
              file=sys.stderr)
        return 2
    if _wants_obs(args):
        return _run_observed(args, argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
