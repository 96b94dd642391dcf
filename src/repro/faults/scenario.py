"""The scenario -> run -> report spine (docs/architecture.md#scenario-spine).

Every experiment in the repo has one shape: build a topology, drive
new-flow load, optionally inject faults while invariants and the health
engine watch, then read the outcome off the traces.  :func:`run` owns
that shape once — the observability context, the build/run wall-clock
split, the daemon lifecycle (engine -> traffic -> injector -> checker ->
collector, the start order same-seed byte-identity depends on), the
truth-window/scorecard join and the shared report fields — and each
scenario is a declarative :class:`Scenario` entry registered by name:
``chaos`` here, ``pool_chaos`` / ``pool_autoscale`` in
:mod:`repro.cluster.scenario`, ``telemetry_point`` in
:mod:`repro.telemetry.scorecard` and ``scale`` in
:mod:`repro.testbed.scale`.  One :func:`format_report` shows every
:class:`RunReport` (as :mod:`repro.obs.report` sections) and one
:func:`write_artifacts` writes it out, kind by kind from the artifact
table (:mod:`repro.obs.artifacts`).

The ``chaos`` entry is the canonical robustness scenario
(docs/robustness.md): a Scotch-protected deployment under client load
and a flood (keeping the overlay active), every fault class injected on
a fixed timeline, and the §3.2 client flow failure fraction evaluated
both across the fault window and in a clean post-recovery window.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from importlib import import_module
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.config import ScotchConfig
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker, Violation
from repro.faults.plan import FaultPlan
from repro.net.tap import client_flow_failure_fraction
from repro.obs import HealthEngine, Observability, get_default_obs, observed
from repro.obs.artifacts import (
    ALERT_TIMELINE,
    ARTIFACTS,
    POSTMORTEM,
    SCORECARD,
    write_jsonl,
)
from repro.obs.flight import FlightRecorder
from repro.obs.postmortem import PostmortemCollector, export_bundles
from repro.obs.report import Section, Table, Text, render_html, render_text
from repro.obs.scorecard import (
    FLASH_CROWD,
    Scorecard,
    TruthWindow,
    build_scorecard,
    health_sections,
    scorecard_json,
    scorecard_sections,
    truth_windows,
)
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood

#: Phase margin between the last fault clearing and the start of the
#: post-recovery measurement window (covers heartbeat detection plus one
#: reliable-install retry round at the chaos config below).
RECOVERY_MARGIN = 1.5


def chaos_config() -> ScotchConfig:
    """The robustness-experiment config: fast failure detection and a
    tight retry budget, so a short simulation exercises full
    detect->refresh->recover cycles several times over."""
    return ScotchConfig(
        heartbeat_interval=0.25,
        heartbeat_miss_limit=2,
        reliable_install_timeout=0.2,
        reliable_install_timeout_cap=1.0,
        reliable_install_max_retries=3,
    )


def default_plan(duration: float = 18.0) -> FaultPlan:
    """One of each fault class, spread over the run (times assume the
    overlay activates by ~2 s, which the flood guarantees)."""
    if duration < 16.0:
        raise ValueError("the default plan needs at least 16 s of run time")
    plan = FaultPlan()
    plan.channel_loss(3.0, "edge", duration=2.5, loss=0.08,
                      duplicate=0.02, jitter=0.5e-3, direction="both")
    plan.ofa_stall(4.0, "mv1_0", duration=1.0)
    plan.vswitch_crash(6.5, "mv0_0", down_for=2.5)
    plan.channel_flap(9.5, "edge", period=0.2, flaps=3)
    plan.controller_outage(11.5, duration=1.0)
    return plan


# ----------------------------------------------------------------------
# Scenario entries and the registry
# ----------------------------------------------------------------------
class Scenario:
    """One registered experiment: how to build it, load it, break it and
    read it — everything else is :func:`run`'s job.

    Subclass, set the class attributes, override the hooks and decorate
    with :func:`register`.  One instance lives for one run: the hooks
    read ``self.seed`` / ``duration`` / ``knobs`` / ``config`` /
    ``plan`` / ``metrics`` (the live registry, the null one when metrics
    are off) and may keep state on ``self`` between ``traffic`` and
    ``measures``.  The presentation hooks are static: they see only the
    finished report."""

    name = ""
    #: Default simulated seconds.
    duration = 10.0
    #: Scenario keywords (``run(name, **knobs)``) and their defaults.
    knobs: Dict[str, Any] = {}
    #: Always run under a fresh private metrics registry (for measures
    #: that read absolute counter values).
    private_metrics = False
    #: Simulated seconds to keep running past ``duration``.
    drain = 0.0
    table_title = "Measures"

    def __init__(self, seed: int, duration: float, knobs: Dict[str, Any],
                 config: Optional[ScotchConfig], plan: Optional[FaultPlan]):
        self.seed = seed
        self.duration = duration
        self.knobs = {**self.knobs, **knobs}
        self.config = config or self.default_config()
        self.plan = plan if plan is not None else self.default_plan()
        self.metrics: Any = None

    def default_config(self) -> ScotchConfig:
        return ScotchConfig()

    def default_plan(self) -> Optional[FaultPlan]:
        """None means no injector / invariant checker for this run."""
        return None

    def build(self) -> Any:
        """The deployment: needs ``.sim`` / ``.network`` / ``.controller``;
        ``.overlay`` / ``.scotch`` / ``.pool`` are used when present."""
        raise NotImplementedError

    def traffic(self, dep: Any) -> None:
        raise NotImplementedError

    def measures(self, dep: Any) -> Dict[str, Any]:
        """The scenario's own result rows (``RunReport.measures``)."""
        raise NotImplementedError

    def health_catalog(self) -> Tuple[Optional[Sequence], Optional[Sequence]]:
        """(alert rules, SLIs) for the health engine; None: built-ins."""
        return None, None

    def truth(self) -> Sequence[TruthWindow]:
        """Detection ground truth beyond the injector log."""
        return ()

    def grace(self) -> Optional[float]:
        """Invariant grace window (None: the checker's own default)."""
        return None

    @staticmethod
    def healthy(report: "RunReport") -> bool:
        return not report.violations

    @staticmethod
    def headline(report: "RunReport") -> str:
        return report.scenario

    @staticmethod
    def rows(report: "RunReport") -> List[Sequence[object]]:
        return list(report.measures.items())

    @staticmethod
    def closing(report: "RunReport") -> List[str]:
        """Sections after the scorecard (the verdict line etc.)."""
        return []


_REGISTRY: Dict[str, Type[Scenario]] = {}

#: Modules that register scenarios on import (this one is the fifth).
_SCENARIO_MODULES = ("repro.cluster.scenario", "repro.telemetry.scorecard",
                     "repro.testbed.scale")


def register(entry: Type[Scenario]) -> Type[Scenario]:
    _REGISTRY[entry.name] = entry
    return entry


def scenarios() -> Dict[str, Type[Scenario]]:
    """Every registered scenario, by name."""
    for module in _SCENARIO_MODULES:
        import_module(module)
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
@dataclass
class RunReport:
    """What one :func:`run` produced: the shared fields every scenario
    fills, plus the scenario's own ``measures`` (also readable as
    attributes: ``report.failure_post_recovery``)."""

    scenario: str
    seed: int
    duration: float
    build_wall: float
    build_events: int
    run_wall: float
    run_events: int
    measures: Dict[str, Any] = field(default_factory=dict)
    # -- fault injection + invariants (docs/robustness.md) --------------
    faults_injected: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    fault_log: List[Dict[str, object]] = field(default_factory=list)
    fault_log_jsonl: str = ""
    violations: List[Violation] = field(default_factory=list)
    invariant_checks: int = 0
    grace: float = 0.0
    # -- health engine (docs/observability.md#health) -------------------
    alert_timeline: List[Dict[str, object]] = field(default_factory=list)
    alert_timeline_jsonl: str = ""
    sli_series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    truth: List[TruthWindow] = field(default_factory=list)
    scorecard: Optional[Scorecard] = None
    # -- postmortem bundles (docs/observability.md#postmortem-bundles) --
    postmortem_enabled: bool = False
    postmortems: List[Dict[str, object]] = field(default_factory=list)
    postmortems_dropped: int = 0

    def __getattr__(self, name: str) -> Any:
        # Reached only for names that are not fields; __dict__ keeps a
        # half-built instance (copy/unpickle) from recursing.
        measures = self.__dict__.get("measures", {})
        if name in measures:
            return measures[name]
        raise AttributeError(f"report has no field or measure {name!r}")

    page_label = "health report"

    def page(self) -> Tuple[str, List[Section]]:
        """The health report (title, sections): what ``--health-report``
        writes as a page (``chaos`` prints it beside the run report)."""
        return f"Scotch health — seed {self.seed}", health_sections(
            self.sli_series, self.alert_timeline, self.duration, self.truth,
            self.scorecard)

    def json_artifact(self, kind: str) -> str:
        """The text of a single-object artifact: the detection
        scorecard, or (any other kind) the run report itself."""
        if kind == SCORECARD:
            return scorecard_json(self.scorecard)
        shared = {name: getattr(self, name) for name in (
            "scenario", "seed", "duration", "build_wall", "build_events",
            "run_wall", "run_events", "events_per_sec")}
        return json.dumps({**shared, **self.measures}, indent=2,
                          sort_keys=True)

    @property
    def healthy(self) -> bool:
        return scenarios()[self.scenario].healthy(self)

    @property
    def events_per_sec(self) -> float:
        return self.run_events / self.run_wall if self.run_wall > 0 else 0.0


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run(
    scenario: str,
    seed: int = 1,
    duration: Optional[float] = None,
    *,
    plan: Optional[FaultPlan] = None,
    config: Optional[ScotchConfig] = None,
    health: bool = False,
    rules: Optional[Sequence] = None,
    detection_tolerance: float = 1.0,
    postmortem: bool = False,
    **knobs: Any,
) -> RunReport:
    """Run the registered ``scenario`` and return its report.

    With ``health=True`` a read-only :class:`~repro.obs.health.HealthEngine`
    streams SLIs and alert rules during the run and the report gains the
    alert timeline plus a detection scorecard joining it against the
    injector's ground truth.  With ``postmortem=True`` the run also
    enables causal provenance and a flight recorder, and a
    :class:`~repro.obs.postmortem.PostmortemCollector` captures a bundle
    on every alert firing and invariant violation.  Both only read, so
    the fault log and the measured outcomes are identical with them on
    or off, and same-seed logs and bundles are byte-identical
    (``tests/test_health_scorecard.py``, ``tests/test_postmortem.py``).
    """
    entry = scenarios()[scenario]
    unknown = sorted(set(knobs) - set(entry.knobs))
    if unknown:
        raise TypeError(f"scenario {scenario!r} has no keyword(s) "
                        f"{', '.join(unknown)}")
    this = entry(seed, entry.duration if duration is None else duration,
                 knobs, config, plan)
    duration, plan = this.duration, this.plan

    # The health engine and some measures need a live metrics registry.
    # Reuse the process-default one when metrics are already on (e.g.
    # CLI --metrics); otherwise install a private metrics-only bundle
    # for the duration of the run, keeping any active tracer/profiler.
    outer = get_default_obs()
    context = nullcontext()
    if entry.private_metrics or (health and not outer.metrics.enabled):
        private = Observability(trace=False, metrics=True)
        if getattr(outer, "enabled", False):
            private.tracer = outer.tracer
            private.profiler = outer.profiler
        context = observed(private)

    with ExitStack() as stack:
        stack.enter_context(context)
        this.metrics = get_default_obs().metrics
        started = perf_counter()
        dep = this.build()
        sim = dep.sim
        build_wall = perf_counter() - started
        build_events = sim.events_fired
        pool = getattr(dep, "pool", None)
        flight = None
        if postmortem:
            # The run's own flight recorder (it turns causal provenance
            # on), fed the spans of an enabled outer tracer until the
            # run ends, however it ends.
            flight = FlightRecorder()
            flight.bind(sim, run=0)
            flight.attach_metrics(this.metrics)
            if outer.tracer.enabled:
                stack.callback(setattr, outer.tracer, "flight", outer.tracer.flight)
                outer.tracer.flight = flight

        # Start order is part of the byte-identity contract: engine,
        # traffic, injector, checker, collector.
        engine = None
        if health:
            scenario_rules, slis = this.health_catalog()
            engine = HealthEngine(
                sim, this.metrics,
                rules=rules if rules is not None else scenario_rules,
                slis=slis)
            engine.start()

        this.traffic(dep)

        injector = checker = collector = None
        if plan is not None:
            injector = FaultInjector(sim, dep.network, dep.controller, plan,
                                     pool=pool)
            injector.start()
            checker = InvariantChecker(
                sim, dep.network, getattr(dep, "overlay", None),
                scotch=getattr(dep, "scotch", None), pool=pool,
                grace=this.grace())
            checker.start()
        if postmortem:
            collector = PostmortemCollector(
                sim, flight=flight, injector=injector,
                context={"seed": seed, "duration": duration,
                         **{k: v for k, v in this.knobs.items()
                            if isinstance(v, (int, float, str))},
                         "scenario": entry.name})
            if checker is not None:
                checker.on_violation = collector.on_violation
            if engine is not None:
                engine.on_transition = collector.on_alert

        started = perf_counter()
        sim.run(until=duration + entry.drain)
        run_wall = perf_counter() - started
        if checker is not None:
            checker.check_now()

    report = RunReport(
        scenario=entry.name, seed=seed, duration=duration,
        build_wall=build_wall, build_events=build_events,
        run_wall=run_wall, run_events=sim.events_fired - build_events,
        measures=this.measures(dep))
    if injector is not None:
        report.faults_injected = injector.injected
        report.fault_counts = dict(injector.counts)
        report.fault_log = list(injector.log)
        report.fault_log_jsonl = injector.log_jsonl()
        report.violations = list(checker.violations)
        report.invariant_checks = checker.checks_run
        report.grace = checker.grace
    if engine is not None:
        engine.stop()
        report.alert_timeline = list(engine.timeline)
        report.alert_timeline_jsonl = engine.timeline_jsonl()
        report.sli_series = {name: list(points)
                             for name, points in engine.series.items()}
        report.truth = truth_windows(
            injector.log if injector is not None else [],
            run_end=duration, extra=this.truth())
        report.scorecard = build_scorecard(
            engine.rules, engine.timeline, report.truth,
            run_end=duration, tolerance=detection_tolerance)
    if collector is not None:
        report.postmortem_enabled = True
        report.postmortems = list(collector.bundles)
        report.postmortems_dropped = collector.dropped
    return report


# ----------------------------------------------------------------------
# The one report and the one artifact writer
# ----------------------------------------------------------------------
def format_report(report: RunReport) -> str:
    """A human-readable report of any run (used by the CLI): fault
    tally, the scenario's measures, violations, the detection
    scorecard, the closing lines."""
    entry = scenarios()[report.scenario]
    sections: List[Section] = []
    if report.fault_counts:
        sections.append(Table(entry.headline(report),
                              ["fault class", "injected"],
                              sorted(report.fault_counts.items())))
    sections.append(Table(entry.table_title, ["measure", "value"],
                          entry.rows(report)))
    if report.violations:
        sections.append(Table(
            "Invariant violations", ["t (s)", "invariant", "detail"],
            [[f"{v.time:.2f}", v.name, v.detail]
             for v in report.violations[:20]]))
    if report.scorecard is not None:
        sections += scorecard_sections(report.scorecard)
    return render_text(
        sections + [Text(line) for line in entry.closing(report)])


#: ``write_artifacts`` key for the report's own HTML page
#: (``report.page()``) — a rendering, not an artifact kind.
HTML = "html"


def _write_artifact(report: Any, kind: str, path: str) -> str:
    """Write one artifact; returns its one-line summary."""
    if kind == HTML:
        with open(path, "w") as handle:
            handle.write(render_html(*report.page()))
        return f"{report.page_label} -> {path}"
    entry, count, suffix = ARTIFACTS[kind], 0, ""
    if kind == POSTMORTEM:
        count = len(export_bundles(report.postmortems, path))
        if report.postmortems_dropped:
            suffix = f" ({report.postmortems_dropped} past the cap dropped)"
    elif entry.jsonl:
        # A log the report holds under the kind's own name, next to its
        # headerless JSONL text.
        count = len(getattr(report, kind))
        write_jsonl(path, kind, getattr(report, kind + "_jsonl").splitlines())
    else:
        with open(path, "w") as handle:
            handle.write(report.json_artifact(kind) + "\n")
    return entry.summary.format(count=count, path=path) + suffix


def write_artifacts(report: Any, paths: Dict[str, Optional[str]]) -> List[str]:
    """Write every artifact in ``paths`` — artifact kind (or
    :data:`HTML`) -> path; falsy paths are skipped — in the order given,
    and return one summary line per file written."""
    wanted = [kind for kind, path in paths.items() if path]
    unknown = [kind for kind in wanted if kind != HTML and kind not in ARTIFACTS]
    if unknown:
        raise ValueError(f"no artifact kind {', '.join(unknown)}")
    if isinstance(report, RunReport) and report.scorecard is None:
        missing = [kind for kind in wanted
                   if kind in (ALERT_TIMELINE, SCORECARD, HTML)]
        if missing:
            raise ValueError(f"{', '.join(missing)} need a health=True run")
    return [_write_artifact(report, kind, paths[kind]) for kind in wanted]


# ----------------------------------------------------------------------
# The chaos scenario
# ----------------------------------------------------------------------
@register
class Chaos(Scenario):
    """The canonical robustness run (docs/robustness.md)."""

    name = "chaos"
    duration = 18.0
    knobs = {"client_rate": 100.0, "attack_rate": 2000.0}
    table_title = "Recovery report"
    CLIENT_START, FLOOD_START = 0.5, 1.0

    def default_config(self) -> ScotchConfig:
        return chaos_config()

    def default_plan(self) -> FaultPlan:
        return default_plan(self.duration)

    def build(self) -> Any:
        return build_deployment(seed=self.seed, racks=2, servers_per_rack=2,
                                mesh_per_rack=1, backups=1, config=self.config)

    def traffic(self, dep: Any) -> None:
        server_ip = dep.servers[0].ip
        stop = self.duration - 1.0
        NewFlowSource(dep.sim, dep.client, server_ip,
                      rate_fps=self.knobs["client_rate"]).start(
            at=self.CLIENT_START, stop_at=stop)
        # The flood keeps the edge congested, hence the overlay active,
        # so every fault hits a control plane that is actually doing work.
        SpoofedFlood(dep.sim, dep.attacker, server_ip,
                     rate_fps=self.knobs["attack_rate"]).start(
            at=self.FLOOD_START, stop_at=stop)

    def truth(self) -> Sequence[TruthWindow]:
        # The deliberate flood is ground truth for the flash-crowd rule:
        # the fault-free baseline keeps the flood, so its OFA-overload
        # firing is a true positive there too.
        if self.knobs["attack_rate"] <= 0:
            return ()
        return (TruthWindow(FLASH_CROWD, "edge", self.FLOOD_START,
                            self.duration - 1.0),)

    def measures(self, dep: Any) -> Dict[str, Any]:
        traffic_stop = self.duration - 1.0
        fault_start = min((e.time for e in self.plan), default=0.0)
        fault_end = self.plan.end_time()
        post_start = min(fault_end + RECOVERY_MARGIN, traffic_stop)
        sent, received = dep.client.sent_tap, dep.servers[0].recv_tap
        reliable = dep.scotch.reliable
        heartbeat = dep.scotch.heartbeat
        channels = [h.channel for h in dep.controller.datapaths.values()]
        return {
            "failure_during_faults": client_flow_failure_fraction(
                sent, received, start=fault_start, end=fault_end),
            "failure_post_recovery": client_flow_failure_fraction(
                sent, received, start=post_start, end=traffic_stop),
            "flows_started": len(sent.records),
            "failures_detected": heartbeat.failures_detected,
            "recoveries_detected": heartbeat.recoveries_detected,
            "degraded_refreshes": heartbeat.degraded_refreshes,
            "resyncs": dep.scotch.resyncs,
            "reliable": {name: getattr(reliable, name)
                         for name in ("sent", "acked", "retries", "abandoned",
                                      "superseded")},
            "channel_drops": sum(c.to_switch_dropped + c.to_controller_dropped
                                 for c in channels),
            "channel_duplicates": sum(
                c.to_switch_duplicated + c.to_controller_duplicated
                for c in channels),
        }

    @staticmethod
    def healthy(report: RunReport) -> bool:
        return not report.violations and report.failure_post_recovery < 0.05

    @staticmethod
    def headline(report: RunReport) -> str:
        return (f"Chaos run — seed {report.seed}, {report.duration:.0f}s, "
                f"{report.faults_injected} fault actions")

    @staticmethod
    def rows(report: RunReport) -> List[Sequence[object]]:
        reliable = report.reliable
        return [
            ["client failure (fault window)", f"{report.failure_during_faults:.4f}"],
            ["client failure (post-recovery)", f"{report.failure_post_recovery:.4f}"],
            ["vSwitch failures detected", report.failures_detected],
            ["vSwitch recoveries detected", report.recoveries_detected],
            ["degraded group refreshes", report.degraded_refreshes],
            ["controller resyncs", report.resyncs],
            ["reliable installs sent/acked", f"{reliable['sent']}/{reliable['acked']}"],
            ["reliable retries / abandoned", f"{reliable['retries']}/{reliable['abandoned']}"],
            ["channel msgs dropped/duplicated", f"{report.channel_drops}/{report.channel_duplicates}"],
            ["invariant checks / violations", f"{report.invariant_checks}/{len(report.violations)}"],
            ["recovery grace window (s)", f"{report.grace:.2f}"],
        ]

    @staticmethod
    def closing(report: RunReport) -> List[str]:
        sections = []
        if report.scorecard is not None:
            firings = sum(s.firings for s in report.scorecard.rules.values())
            sections.append(f"alerts: {len(report.alert_timeline)} "
                            f"transitions, {firings} firings")
        if report.postmortem_enabled:
            dropped = (f" ({report.postmortems_dropped} past the cap)"
                       if report.postmortems_dropped else "")
            sections.append(f"postmortems: {len(report.postmortems)} bundles "
                            f"captured{dropped}")
        verdict = "HEALTHY" if report.healthy else "DEGRADED"
        sections.append(f"verdict: {verdict} (post-recovery failure "
                        f"{report.failure_post_recovery:.2%}, "
                        f"{len(report.violations)} violations)")
        return sections
