"""Accuracy/overhead scorecard for sampled telemetry.

Answers the question the sampling knob poses: *how much elephant-
detection quality does each sampling rate buy, at what monitoring
cost?*  One scenario — a spoofed flood keeping the overlay active,
plus a population of known elephants and decoy mid-size mice entering
on the attacked port — is replayed per stats mode with the same seed,
and each replay is scored on:

* **accuracy** — elephant-detection recall/precision against the
  injected ground truth, plus detection and migration latency;
* **overhead** — polls sent, sample reports, flow-stats control-channel
  bytes (the ``stats.bytes.*`` counters) and the controller CPU share
  of monitoring callbacks (engine profiler).

The scorecard is emitted as canonical JSON (digest-stable; versioned
in-payload — artifact kind ``telemetry_scorecard``) and, from the same
report sections as the text table, a self-contained HTML page.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ScotchConfig
from repro.faults.scenario import RunReport, Scenario, register, run
from repro.net.flow import FlowKey, FlowSpec
from repro.obs.artifacts import (
    ARTIFACTS,
    TELEMETRY_HEADERS,
    TELEMETRY_SCORECARD,
    telemetry_rows,
)
from repro.obs.profiler import EngineProfiler
from repro.obs.report import Section, Table, Text, canonical_json
from repro.testbed.deployment import build_deployment
from repro.traffic import SpoofedFlood

#: Version of the telemetry scorecard JSON payload: the artifact is one
#: canonical JSON object, versioned in-payload.
TELEMETRY_SCORECARD_VERSION = ARTIFACTS[TELEMETRY_SCORECARD].version

#: Profiler qualname fragments counted as monitoring work when
#: computing the controller CPU share.
_MONITORING_CALLBACKS = (
    "StatsPoller.",
    "PacketSampler.",
    "SamplingStatsService.",
    "_reply_flow_stats",
)


@dataclass
class TelemetryScorecard:
    """All runs of one scorecard sweep (first run is the poll baseline);
    each is a ``telemetry_point`` :class:`RunReport`, one mode/rate
    point of the accuracy-vs-overhead trade."""

    seed: int
    duration: float
    attack_rate: float
    elephants: int
    mice: int
    elephant_packet_threshold: int
    runs: List[RunReport] = field(default_factory=list)

    @property
    def baseline(self) -> Optional[RunReport]:
        for point in self.runs:
            if point.mode == "poll":
                return point
        return None

    def byte_reduction(self, point: RunReport) -> float:
        """Monitoring-byte reduction factor vs. the poll baseline."""
        baseline = self.baseline
        if baseline is None or point.monitoring_bytes == 0:
            return 0.0
        return baseline.monitoring_bytes / point.monitoring_bytes

    page_label = "telemetry report"

    def page(self) -> Tuple[str, List[Section]]:
        """The scorecard (title, sections): what ``telemetry`` prints
        and ``--html`` writes as a page."""
        return "Sampled-telemetry accuracy / overhead scorecard", [
            Table(f"Telemetry scorecard — seed {self.seed}, "
                  f"{self.duration:.0f}s, flood {self.attack_rate:.0f} fps, "
                  f"{self.elephants} elephants (threshold "
                  f"{self.elephant_packet_threshold} pkts), {self.mice} mice",
                  TELEMETRY_HEADERS,
                  telemetry_rows([_run_payload(self, point)
                                  for point in self.runs])),
            Text("reduction = poll-baseline monitoring bytes / this run's "
                 "monitoring bytes; cpu share = monitoring callbacks' share "
                 "of total callback wall time (profiler; wall-clock derived, "
                 "not deterministic).", page_only=True),
        ]

    def json_artifact(self, kind: str) -> str:
        return telemetry_scorecard_json(self)


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
#: Start times of the injected flows: elephant i at 1.5 + 0.25 i, decoy
#: mouse i at 1.75 + 0.25 i (both during the flood).
ELEPHANT_START, MOUSE_START, FLOW_SPACING = 1.5, 1.75, 0.25


def monitoring_counters(metrics) -> Dict[str, int]:
    """Final values of the flow-measurement cost counters in ``metrics``
    (zeros for counters never touched); ``monitoring_bytes`` totals the
    ``stats.bytes.*`` control-channel byte counters."""

    def value(name: str) -> int:
        counter = metrics.counters.get(name)
        return counter.value if counter is not None else 0

    return {
        "polls_sent": value("stats.polls_sent"),
        "reply_entries": value("stats.reply_entries"),
        "sample_reports": value("stats.sample_reports"),
        "sample_records": value("stats.sample_records"),
        "estimates_emitted": value("telemetry.estimates_emitted"),
        "monitoring_bytes": sum(value(f"stats.bytes.{kind}")
                                for kind in ("requests", "replies", "samples")),
    }


@register
class TelemetryPoint(Scenario):
    """One measured run of the scorecard scenario under a given config.

    The spoofed flood (fig. 3's stress shape) congests the edge switch
    so new flows ride the overlay; the elephants and decoy mice enter on
    the attacked port during the flood.  Runs under a private
    metrics-only Observability, so an observability-off caller still
    gets counters without perturbing the process default; ``duration``
    is the flood length (the run drains one more second)."""

    name = "telemetry_point"
    duration = 8.0
    knobs = {"attack_rate": 800.0, "elephants": 8, "mice": 10,
             "elephant_packets": 600, "elephant_pps": 300.0,
             "mouse_packets": 100, "mouse_pps": 200.0}
    private_metrics = True
    drain = 1.0

    def build(self):
        return build_deployment(seed=self.seed, racks=2, mesh_per_rack=1,
                                config=self.config)

    def traffic(self, dep) -> None:
        knobs = self.knobs
        self.profiler = EngineProfiler()
        self.profiler.attach(dep.sim)
        server_ip = dep.servers[0].ip
        SpoofedFlood(dep.sim, dep.attacker, server_ip,
                     rate_fps=knobs["attack_rate"]).start(
            at=0.5, stop_at=self.duration)

        def inject(kind, count, subnet, base_port, first_start, packet_size):
            keys = []
            for index in range(count):
                key = FlowKey(f"10.99.{subnet}.{index + 1}", server_ip, 6,
                              base_port + index, 80)
                keys.append(key)
                dep.attacker.start_flow(FlowSpec(
                    key=key,
                    start_time=first_start + FLOW_SPACING * index,
                    size_packets=knobs[f"{kind}_packets"],
                    packet_size=packet_size,
                    rate_pps=knobs[f"{kind}_pps"],
                    batch=5,
                ))
            return keys

        self.elephant_keys = inject("elephant", knobs["elephants"], 1, 6000,
                                    ELEPHANT_START, 1000)
        inject("mouse", knobs["mice"], 2, 7000, MOUSE_START, 400)

    def measures(self, dep) -> Dict[str, object]:
        config = self.config
        # Ground truth: injected elephants that actually sent past the
        # threshold *and* rode the overlay (only overlay flows are
        # visible to §5.3 monitoring — an elephant admitted straight to
        # a physical path needs no migration).
        sent = dep.attacker.sent_tap.records
        flow_db = dep.scotch.flow_db
        truth = set()
        for key in self.elephant_keys:
            record = sent.get(key)
            if (record is None
                    or record.packets_sent < config.elephant_packet_threshold):
                continue
            info = flow_db.get(key)
            if info is not None and (info.entry_vswitch is not None
                                     or info.migrated_at is not None):
                truth.add(key)

        flagged_at = dict(dep.scotch.migrator.elephants_flagged)
        flagged_true = truth & set(flagged_at)
        starts = {key: ELEPHANT_START + FLOW_SPACING * index
                  for index, key in enumerate(self.elephant_keys)}
        detection_delays = [flagged_at[key] - starts[key]
                            for key in sorted(flagged_true)]
        migration_delays = [flow_db.get(key).migrated_at - starts[key]
                            for key in sorted(truth)
                            if flow_db.get(key).migrated_at is not None]

        def mean(delays: List[float]) -> Optional[float]:
            return sum(delays) / len(delays) if delays else None

        callbacks = self.profiler.callbacks
        total_wall = sum(s.total_s for s in callbacks.values())
        monitoring_wall = sum(
            s.total_s for name, s in callbacks.items()
            if any(fragment in name for fragment in _MONITORING_CALLBACKS))
        sampling = config.stats_mode in ("sample", "hybrid")
        return {
            "mode": config.stats_mode,
            # Sampling period N (0 for pure polling).
            "period": config.sampling_period if sampling else 0,
            "true_elephants": len(truth),
            "flagged": len(flagged_at),
            "flagged_true": len(flagged_true),
            "recall": len(flagged_true) / len(truth) if truth else 1.0,
            "precision": (len(flagged_true) / len(flagged_at)
                          if flagged_at else 1.0),
            "migrations_completed": dep.scotch.migrator.migrations_completed,
            # Mean seconds from elephant flow start to its first
            # threshold crossing in a stats dump (None: nothing flagged)
            # and to its completed migration.
            "mean_detection_delay": mean(detection_delays),
            "mean_migration_delay": mean(migration_delays),
            **monitoring_counters(self.metrics),
            # Monitoring callbacks' share of total callback wall time.
            "controller_cpu_share": (monitoring_wall / total_wall
                                     if total_wall > 0 else 0.0),
        }


def run_telemetry_scorecard(
    seed: int = 1,
    duration: float = 8.0,
    attack_rate: float = 800.0,
    elephants: int = 8,
    mice: int = 10,
    periods: Sequence[int] = (10,),
    include_hybrid: bool = False,
    **scenario_kwargs,
) -> TelemetryScorecard:
    """The full sweep: a poll baseline plus one sample run per period
    (and optionally a hybrid run at the first period)."""
    base = ScotchConfig()
    card = TelemetryScorecard(
        seed=seed,
        duration=duration,
        attack_rate=attack_rate,
        elephants=elephants,
        mice=mice,
        elephant_packet_threshold=base.elephant_packet_threshold,
    )
    configs = [replace(base, stats_mode="poll")]
    configs += [
        replace(base, stats_mode="sample", sampling_period=period)
        for period in periods
    ]
    if include_hybrid and periods:
        configs.append(
            replace(base, stats_mode="hybrid", sampling_period=periods[0])
        )
    for config in configs:
        card.runs.append(run(
            "telemetry_point", seed, duration, config=config,
            attack_rate=attack_rate, elephants=elephants, mice=mice,
            **scenario_kwargs,
        ))
    return card


# ----------------------------------------------------------------------
# Rendering (canonical JSON; text and page come from ``card.page()``)
# ----------------------------------------------------------------------
def _run_payload(card: TelemetryScorecard, point: RunReport) -> Dict:
    payload = {name: round(value, 6) if isinstance(value, float) else value
               for name, value in point.measures.items()}
    payload["byte_reduction"] = round(card.byte_reduction(point), 6)
    return payload


def telemetry_scorecard_json(card: TelemetryScorecard) -> str:
    """The scorecard as one canonical JSON object.

    ``controller_cpu_share`` is wall-clock-derived (engine profiler) and
    therefore the one non-deterministic field; everything else is
    bit-stable for equal seeds."""
    payload = {
        "kind": TELEMETRY_SCORECARD,
        "version": TELEMETRY_SCORECARD_VERSION,
        "seed": card.seed,
        "duration": card.duration,
        "attack_rate": card.attack_rate,
        "elephants": card.elephants,
        "mice": card.mice,
        "elephant_packet_threshold": card.elephant_packet_threshold,
        "telemetry_runs": [_run_payload(card, point) for point in card.runs],
    }
    return canonical_json(payload)
