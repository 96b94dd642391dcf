"""The artifact table: every file kind the repo writes, in one place.

One :class:`Artifact` entry per kind holds what the kind *is*: its name
and schema version, how a file of that kind is recognised, which flag
writes it, its one-line "written" summary, and ``sections(path)`` — the
report (:mod:`repro.obs.report`) that ``scotch-repro inspect FILE``
prints.  Adding a kind is one entry here plus its writer; a kind the CLI
writes but ``inspect`` cannot read back fails
``tests/test_artifacts.py``.

Two containers:

* **JSONL** kinds start with one header line written by
  :func:`write_jsonl` / :func:`schema_line` ::

      {"schema":"trace","type":"schema","version":1}

  and are read by :func:`read_jsonl`, the one line reader, which skips
  the header — so a round trip returns exactly the payload records.
  The golden-master tests pin the version numbers: bumping one here
  without regenerating the fixtures is a deliberate, reviewable act.
* **Single-object** kinds are one JSON object (:func:`load_json`),
  recognised by the keys the entry names; those that carry a version
  carry it in the payload.

The *in-memory* JSONL strings (``FaultInjector.log_jsonl()``,
``HealthEngine.timeline_jsonl()``, ``ControllerPool.events_jsonl()``)
stay headerless: they are the byte-for-byte determinism comparison
unit, and the header belongs to the file container, not the log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
)

from repro.obs.critpath import (
    attribute,
    attribution_line,
    attribution_sections,
    longest_chain,
    read_report,
)
from repro.obs.metrics import bucket_quantile, mean, percentile
from repro.obs.path import SPAN_PACKET_IN
from repro.obs.postmortem import read_bundle
from repro.obs.report import Section, Table, Text, canonical_json
from repro.obs.scorecard import scorecard_from_payload, scorecard_sections

TRACE = "trace"
METRICS = "metrics"
FAULT_LOG = "fault_log"
ALERT_TIMELINE = "alert_timeline"
POOL_EVENTS = "pool_events"
POSTMORTEM = "postmortem"
CRITPATH = "critpath"
SCORECARD = "scorecard"
TELEMETRY_SCORECARD = "telemetry_scorecard"
RUN_REPORT = "run_report"
MANIFEST = "manifest"


# ----------------------------------------------------------------------
# The two containers
# ----------------------------------------------------------------------
def schema_line(kind: str) -> str:
    """The header of a JSONL artifact, as one line (no newline)."""
    return canonical_json({"type": "schema", "schema": kind,
                           "version": ARTIFACTS[kind].version})


def write_jsonl(path: str, kind: str, lines: Iterable[str]) -> None:
    """Write ``lines`` (JSON records, no newlines) to ``path`` behind
    the ``kind`` schema header."""
    with open(path, "w") as handle:
        handle.write(schema_line(kind) + "\n")
        for line in lines:
            handle.write(line + "\n")


def is_schema_record(record: Any) -> bool:
    return isinstance(record, dict) and record.get("type") == "schema"


def iter_records(path: str) -> Iterator[Any]:
    """Every JSON record of a one-record-per-line file, header included."""
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """The payload records of a JSONL file (schema header skipped)."""
    return [record for record in iter_records(path)
            if not is_schema_record(record)]


def load_json(path: str) -> Dict[str, Any]:
    """A single-object artifact."""
    with open(path) as handle:
        return json.load(handle)


def sniff_kind(path: str) -> str:
    """The kind of the artifact at ``path``: the schema header's for
    JSONL, else the single-object kind whose keys the object has; a
    headerless line file (or an empty one) is a ``trace``."""
    records = iter_records(path)
    try:
        first = next(records, None)
    except ValueError:  # not one record per line: an indented object
        first = load_json(path)
    finally:
        records.close()
    if is_schema_record(first):
        return str(first["schema"])
    if isinstance(first, dict):
        for entry in ARTIFACTS.values():
            if entry.keys and entry.keys <= first.keys():
                return entry.kind
    return TRACE


def _span_text(times: List[float]) -> str:
    """The extent of a list of timestamps."""
    return f"{min(times):.2f}s .. {max(times):.2f}s" if times else "-"


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def summarize_trace(path: str) -> Dict[str, Any]:
    """Load + summarize a JSONL trace.

    Returns::

        {
          "records": int, "spans": int, "instants": int, "open_spans": int,
          "stages": {name: {"count", "mean_ms", "p50_ms", "p99_ms", "max_ms"}},
          "packet_in": {"count", "relayed", "routes": {route: count}},
          "attribution": critpath.attribute(...), "longest": journey|None,
        }
    """
    records = read_jsonl(path)
    durations: Dict[str, List[float]] = {}
    spans = instants = open_spans = 0
    pktin_count = relayed = 0
    routes: Dict[str, int] = {}
    for record in records:
        if record.get("type") == "instant":
            instants += 1
            continue
        spans += 1
        if record.get("t1") is None:
            open_spans += 1
        else:
            durations.setdefault(record["name"], []).append(
                record["t1"] - record["t0"])
        if record["name"] == SPAN_PACKET_IN:
            pktin_count += 1
            args = record.get("args", {})
            if args.get("relay") is not None:
                relayed += 1
            route = args.get("route", "open")
            routes[route] = routes.get(route, 0) + 1
    stages = {
        name: {
            "count": len(values),
            "mean_ms": mean(values) * 1e3,
            "p50_ms": percentile(values, 50) * 1e3,
            "p99_ms": percentile(values, 99) * 1e3,
            "max_ms": max(values) * 1e3,
        }
        for name, values in sorted(durations.items())
    }
    return {
        "records": len(records),
        "spans": spans,
        "instants": instants,
        "open_spans": open_spans,
        "stages": stages,
        "packet_in": {"count": pktin_count, "relayed": relayed,
                      "routes": dict(sorted(routes.items()))},
        "attribution": attribute(records),
        "longest": longest_chain(records),
    }


def _trace_sections(path: str) -> List[Section]:
    summary = summarize_trace(path)
    sections: List[Section] = [Table(
        f"Trace summary — {path}",
        ["stage", "count", "mean (ms)", "p50 (ms)", "p99 (ms)", "max (ms)"],
        [[name, stats["count"], round(stats["mean_ms"], 4),
          round(stats["p50_ms"], 4), round(stats["p99_ms"], 4),
          round(stats["max_ms"], 4)]
         for name, stats in summary["stages"].items()])]
    sections += attribution_sections(
        summary["attribution"], summary["longest"],
        "Packet-In latency attribution")
    pktin = summary["packet_in"]
    routes = ", ".join(f"{route}={count}"
                       for route, count in pktin["routes"].items())
    lines = [
        attribution_line(summary["attribution"]),
        f"records: {summary['records']}  spans: {summary['spans']}  "
        f"instants: {summary['instants']}  open spans: {summary['open_spans']}",
        f"Packet-In journeys: {pktin['count']}  via overlay relay: "
        f"{pktin['relayed']}  routes: {routes or '-'}"]
    return sections + [Text("\n".join(lines))]


# ----------------------------------------------------------------------
# Metrics files
# ----------------------------------------------------------------------
def _metrics_sections(path: str) -> List[Section]:
    """Final counter/gauge values, histogram quantiles (recomputed from
    the exported bucket counts) and the extent of the sampled series."""
    records = read_jsonl(path)
    samples = [r for r in records if r.get("type") == "sample"]
    final = {kind: dict(sorted(((r["name"], r) for r in records
                                if r.get("type") == kind),
                               key=lambda item: item[0]))
             for kind in ("counter", "gauge", "histogram")}
    rows = [[name, "counter", r["value"]]
            for name, r in final["counter"].items()]
    rows += [[name, "gauge", round(float(r["value"]), 4)]
             for name, r in final["gauge"].items()]
    sections: List[Section] = [Table(f"Metrics summary — {path}",
                                     ["instrument", "kind", "value"], rows)]
    if final["histogram"]:
        def fmt(value: Optional[float]) -> Any:
            return "-" if value is None else round(float(value), 6)

        def quantile(r: Dict[str, Any], q: float) -> float:
            return bucket_quantile(r["buckets"], r["counts"], q,
                                   lo=r["min"], hi=r["max"])

        sections.append(Table(
            "Histograms",
            ["histogram", "count", "mean", "p50", "p99", "min", "max"],
            [[name, r["count"],
              fmt(r["sum"] / r["count"] if r["count"] else 0.0),
              fmt(quantile(r, 0.5)), fmt(quantile(r, 0.99)),
              fmt(r["min"]), fmt(r["max"])]
             for name, r in final["histogram"].items()]))
    sections.append(Text(
        f"records: {len(records)}  samples: {len(samples)} "
        f"({len({r['name'] for r in samples})} instruments, "
        f"{_span_text([r['t'] for r in samples])})"))
    return sections


# ----------------------------------------------------------------------
# Event logs: fault log, alert timeline, pool events
# ----------------------------------------------------------------------
def _tally(title: str, fields: List[str], headers: List[str],
           noun: str) -> Callable[[str], List[Section]]:
    """``sections`` of a timestamped event log: how many records carry
    each combination of ``fields``, and the time span covered."""
    def sections(path: str) -> List[Section]:
        records = read_jsonl(path)
        counts: Dict[tuple, int] = {}
        for record in records:
            key = tuple(str(record.get(field)) for field in fields)
            counts[key] = counts.get(key, 0) + 1
        times = [record["t"] for record in records if "t" in record]
        return [Table(f"{title} — {path}", headers + ["count"],
                      [[*key, count] for key, count in sorted(counts.items())]),
                Text(f"{noun}: {len(records)}  ({_span_text(times)})")]
    return sections


# ----------------------------------------------------------------------
# Postmortem bundles and critical-path reports
# ----------------------------------------------------------------------
def _postmortem_sections(path: str) -> List[Section]:
    bundle = read_bundle(path)
    trigger, flight = bundle["trigger"], bundle["flight"]
    rows = [["time (s)", trigger.get("t")], ["kind", trigger.get("kind")],
            ["name", trigger.get("name")], ["event", trigger.get("event")]]
    rows += sorted(trigger.get("detail", {}).items())
    rows += sorted(bundle["context"].items())
    sections: List[Section] = [
        Table(f"Postmortem bundle — {path}", ["field", "value"], rows)]
    if bundle["alerts_firing"]:
        sections.append(Table(
            "Alerts firing at trigger", ["alert", "since (s)"],
            [[a["alert"], a["since"]] for a in bundle["alerts_firing"]]))
    if bundle["faults_open"]:
        sections.append(Table(
            "Faults open at trigger", ["fault", "target", "since (s)"],
            [[f["kind"], f["target"], f["since"]]
             for f in bundle["faults_open"]]))
    if bundle["ancestry"]:
        sections.append(Table(
            "Causal ancestry (newest first)",
            ["depth", "event", "t (s)", "callback"],
            [[depth, f"({a['run']},{a['seq']})", a["t"], a["callback"]]
             for depth, a in enumerate(bundle["ancestry"])]))
    if flight["metric_deltas"]:
        sections.append(Table(
            "Metric deltas (flight window)", ["counter", "delta"],
            sorted(flight["metric_deltas"].items())))
    sections += attribution_sections(
        attribute(flight["spans"]), longest_chain(flight["spans"]),
        "Flight-window latency attribution")
    sections.append(Text(
        f"ancestry: {len(bundle['ancestry'])} events  "
        f"flight: {len(flight['events'])} events, "
        f"{len(flight['spans'])} spans"))
    return sections


def _critpath_sections(path: str) -> List[Section]:
    report, chain = read_report(read_jsonl(path))
    return (attribution_sections(report, chain,
                                 f"Critical-path report — {path}")
            + [Text(attribution_line(report))])


# ----------------------------------------------------------------------
# Single-object kinds
# ----------------------------------------------------------------------
def _scorecard_sections(path: str) -> List[Section]:
    return scorecard_sections(scorecard_from_payload(load_json(path)))


#: The telemetry scorecard's columns (``telemetry_rows``).
TELEMETRY_HEADERS = ["mode", "recall", "prec", "det delay", "mig delay",
                     "polls", "reports", "bytes", "reduction", "cpu share"]


def telemetry_rows(runs: List[Dict[str, Any]]) -> List[List[Any]]:
    """One scorecard row per run payload (the ``telemetry_runs`` of a
    ``telemetry_scorecard`` file): what ``inspect`` and ``telemetry``
    both show."""
    def delay(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.2f}s"

    return [[
        (run["mode"] if run["period"] == 0
         else f"{run['mode']} 1/{run['period']}"),
        f"{run['recall']:.2f}",
        f"{run['precision']:.2f}",
        delay(run["mean_detection_delay"]),
        delay(run["mean_migration_delay"]),
        run["polls_sent"],
        run["sample_reports"],
        run["monitoring_bytes"],
        (f"{run['byte_reduction']:.1f}x" if run["mode"] != "poll"
         else "1.0x"),
        f"{run['controller_cpu_share'] * 100:.2f}%",
    ] for run in runs]


def _telemetry_scorecard_sections(path: str) -> List[Section]:
    payload = load_json(path)
    runs = payload["telemetry_runs"]
    return [
        Table(f"Telemetry scorecard — {path}", TELEMETRY_HEADERS,
              telemetry_rows(runs)),
        Text(f"runs: {len(runs)}  seed: {payload.get('seed')}  "
             f"elephants: {payload.get('elephants')}  "
             f"(schema v{payload.get('version')})")]


def _fields(title: str) -> Callable[[str], List[Section]]:
    """``sections`` of a flat record of run facts: one row per field,
    nested objects flattened to dotted names."""
    def rows(payload: Dict[str, Any], prefix: str = "") -> List[List[Any]]:
        out: List[List[Any]] = []
        for key, value in sorted(payload.items()):
            if isinstance(value, dict):
                out += rows(value, f"{prefix}{key}.")
            elif not isinstance(value, list):
                out.append([prefix + key, value])
            elif any(isinstance(item, (dict, list)) for item in value):
                out.append([prefix + key, f"{len(value)} items"])
            else:
                out.append([prefix + key, " ".join(map(str, value))])
        return out

    def sections(path: str) -> List[Section]:
        return [Table(f"{title} — {path}", ["field", "value"],
                      rows(load_json(path)))]
    return sections


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Artifact:
    """One file kind the repo writes."""

    kind: str
    #: Schema version: in the header line for JSONL kinds, in the
    #: payload (if anywhere) for single-object kinds.  Bump on format
    #: changes.
    version: int
    #: The CLI flag(s) that write this kind (docs/observability.md).
    written_by: str
    #: What ``inspect`` shows for it, in a few words.
    shows: str
    #: The line the CLI prints after writing one (``{count}``: how many
    #: records went in; ``{path}``: where).
    summary: str
    #: The ``inspect`` report of the file at a path.
    sections: Callable[[str], List[Section]]
    #: Single-object kinds: top-level keys that identify the object.
    #: Empty for JSONL kinds, which carry the schema header instead.
    keys: FrozenSet[str] = frozenset()
    #: Kinds that carry control-path spans (what ``inspect --critpath``
    #: runs the critical-path analysis on): the spans of the file at a
    #: path.
    spans: Optional[Callable[[str], List[Dict[str, Any]]]] = None

    @property
    def jsonl(self) -> bool:
        """JSONL behind a schema header (else: one JSON object)."""
        return not self.keys


ARTIFACTS: Dict[str, Artifact] = {entry.kind: entry for entry in (
    Artifact(TRACE, 2, "`--trace FILE`",
             "per-stage latency percentiles, routes, the latency "
             "attribution and the longest journey",
             "trace: {count} records -> {path}", _trace_sections, spans=read_jsonl),
    Artifact(METRICS, 1, "`--metrics FILE`",
             "final counter/gauge values, histogram quantiles, sampled span",
             "metrics: {count} lines -> {path}", _metrics_sections),
    Artifact(FAULT_LOG, 1, "`chaos`/`pool --fault-log FILE`",
             "count per fault class and phase, time span",
             "fault log: {count} actions -> {path}",
             _tally("Fault log", ["kind", "phase"], ["fault", "phase"],
                    "actions")),
    Artifact(ALERT_TIMELINE, 1, "`chaos --alert-log FILE`",
             "count per alert and state, time span",
             "alert timeline: {count} transitions -> {path}",
             _tally("Alert timeline", ["alert", "state"], ["alert", "state"],
                    "transitions")),
    Artifact(POOL_EVENTS, 1, "`pool --events FILE`",
             "count per pool event, time span",
             "pool events: {count} -> {path}",
             _tally("Pool events", ["event"], ["event"], "events")),
    Artifact(POSTMORTEM, 1, "`chaos --postmortem-dir DIR` "
             "(one file per trigger)",
             "trigger, alerts firing, faults open, causal ancestry, metric "
             "deltas, flight-window latency attribution",
             "postmortems: {count} bundles -> {path}", _postmortem_sections,
             spans=lambda path: read_bundle(path)["flight"]["spans"]),
    Artifact(CRITPATH, 1, "`inspect FILE --critpath OUT`",
             "per-stage latency attribution, the longest journey",
             "critical-path report -> {path}", _critpath_sections),
    Artifact(SCORECARD, 1, "`chaos`/`pool --scorecard-json FILE`",
             "detection recall per fault class, precision per rule",
             "scorecard -> {path}", _scorecard_sections,
             keys=frozenset({"classes", "rules", "false_positives"})),
    Artifact(TELEMETRY_SCORECARD, 1, "`telemetry --json FILE`",
             "accuracy and monitoring cost per stats mode",
             "scorecard -> {path}", _telemetry_scorecard_sections,
             keys=frozenset({"telemetry_runs"})),
    Artifact(RUN_REPORT, 1, "`scale --json FILE`",
             "every shared report field and scenario measure",
             "wrote {path}", _fields("Run report"),
             keys=frozenset({"scenario", "seed", "run_events"})),
    Artifact(MANIFEST, 1, "`--manifest FILE`",
             "command, seed, versions, config in force, output paths",
             "manifest -> {path}", _fields("Manifest"),
             keys=frozenset({"manifest_version", "command"})),
)}


def artifacts_markdown() -> str:
    """The table as the markdown docs/observability.md carries
    (``tests/test_artifacts.py`` compares the two)."""
    lines = ["| Kind | Written by | Container, version | `inspect` shows |",
             "|---|---|---|---|"]
    for entry in ARTIFACTS.values():
        container = "JSONL" if entry.jsonl else "JSON object"
        lines.append(f"| `{entry.kind}` | {entry.written_by} | {container}, "
                     f"v{entry.version} | {entry.shows} |")
    return "\n".join(lines)
