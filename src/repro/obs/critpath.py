"""Critical-path analysis of Packet-In journeys (Scotch §4–5, Fig. 7).

Every trace stamps a ``journey`` arg on each control-path stage span,
pointing at its ``packet_in`` journey span's id.  This module walks that DAG to answer
the paper's question — *where* does Packet-In latency accrue — with
per-stage attribution whose sums reconcile against the end-to-end span
durations:

* :func:`journeys` groups stage spans under their journey;
* :func:`attribute` produces per-stage p50/p95/p99 plus each stage's
  share of total journey time, with the sequencing gap between stages
  reported explicitly as the ``(unattributed)`` pseudo-stage, so
  ``sum(stage totals) == sum(journey durations)`` to float precision;
* :func:`longest_chain` extracts the single slowest journey with its
  ordered stages — the critical path a person should look at first.

Shown by ``scotch-repro inspect`` for traces and postmortem bundles
(:func:`attribution_sections`: attribution table + span tree, as text,
or as a page with ``inspect --html``) and exported as JSONL by
``inspect --critpath``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import percentile
from repro.obs.path import SPAN_PACKET_IN
from repro.obs.report import Section, Table, Text, canonical_json

#: Name of the reconciliation pseudo-stage: journey time not covered by
#: any stage span (queueing hand-offs, scheduling slack).
UNATTRIBUTED = "(unattributed)"


def journeys(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Group a trace's spans into journey dicts.

    Each completed ``packet_in`` span with an ``id`` becomes::

        {"id", "run", "t0", "t1", "duration", "switch", "route",
         "relay", "stages": [stage records sorted by (t0, id)]}

    Journeys are returned in trace (completion) order; stage spans lacking
    a known ``journey`` link are ignored, as are still-open spans.
    """
    by_id: Dict[Any, Dict[str, Any]] = {}
    order: List[Dict[str, Any]] = []
    for record in records:
        if (record.get("type") == "span" and record.get("name") == SPAN_PACKET_IN
                and record.get("id") is not None
                and record.get("t1") is not None):
            args = record.get("args", {})
            journey = {
                "id": record["id"],
                "run": record.get("run", 0),
                "t0": record["t0"],
                "t1": record["t1"],
                "duration": record["t1"] - record["t0"],
                "switch": args.get("switch"),
                "route": args.get("route", "open"),
                "relay": args.get("relay"),
                "stages": [],
            }
            by_id[(record.get("run", 0), record["id"])] = journey
            order.append(journey)
    for record in records:
        if record.get("type") != "span" or record.get("t1") is None:
            continue
        link = record.get("args", {}).get("journey")
        if link is None:
            continue
        journey = by_id.get((record.get("run", 0), link))
        if journey is not None:
            journey["stages"].append(record)
    for journey in order:
        journey["stages"].sort(key=lambda r: (r["t0"], r.get("id", 0)))
    return order


def attribute(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-stage latency attribution over every journey in a trace.

    Returns::

        {
          "journeys": N, "total_s": sum of journey durations,
          "stages": {name: {"count", "total_s", "share",
                            "p50_ms", "p95_ms", "p99_ms", "max_ms"}},
          "reconciliation": {"max_abs_gap_s": ..., "negative_gaps": n},
        }

    ``stages`` includes the :data:`UNATTRIBUTED` pseudo-stage (one
    sample per journey: the journey duration minus its stage-span sum),
    which is what makes the stage totals reconcile exactly with the
    end-to-end durations.
    """
    stage_samples: Dict[str, List[float]] = {}
    total = 0.0
    count = 0
    max_gap = 0.0
    negative = 0
    for journey in journeys(records):
        count += 1
        duration = journey["duration"]
        total += duration
        covered = 0.0
        for stage in journey["stages"]:
            stage_s = stage["t1"] - stage["t0"]
            covered += stage_s
            stage_samples.setdefault(stage["name"], []).append(stage_s)
        gap = duration - covered
        if gap < 0:
            negative += 1
        if abs(gap) > max_gap:
            max_gap = abs(gap)
        stage_samples.setdefault(UNATTRIBUTED, []).append(gap)
    stages = {}
    for name in sorted(stage_samples):
        samples = stage_samples[name]
        stage_total = sum(samples)
        stages[name] = {
            "count": len(samples),
            "total_s": stage_total,
            "share": stage_total / total if total else 0.0,
            "p50_ms": percentile(samples, 50) * 1e3,
            "p95_ms": percentile(samples, 95) * 1e3,
            "p99_ms": percentile(samples, 99) * 1e3,
            "max_ms": max(samples) * 1e3,
        }
    return {
        "journeys": count,
        "total_s": total,
        "stages": stages,
        "reconciliation": {"max_abs_gap_s": max_gap,
                           "negative_gaps": negative},
    }


def longest_chain(records: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The slowest journey, or None when the trace has no journeys."""
    worst = None
    for journey in journeys(records):
        if worst is None or journey["duration"] > worst["duration"]:
            worst = journey
    return worst


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def attribution_rows(report: Dict[str, Any]) -> List[List[Any]]:
    """Table rows: [stage, count, total s, share %, p50/p95/p99/max ms]."""
    return [
        [name, stats["count"], round(stats["total_s"], 6),
         f"{stats['share'] * 100:.1f}%", round(stats["p50_ms"], 4),
         round(stats["p95_ms"], 4), round(stats["p99_ms"], 4),
         round(stats["max_ms"], 4)]
        for name, stats in report["stages"].items()
    ]


def format_tree(journey: Dict[str, Any]) -> str:
    """ASCII tree of one journey's stages (the `inspect` span tree)."""
    header = (f"{SPAN_PACKET_IN} #{journey['id']} "
              f"[{journey['t0']:.6f}s .. {journey['t1']:.6f}s] "
              f"{journey['duration'] * 1e3:.3f} ms  "
              f"switch={journey['switch']} route={journey['route']}")
    if journey.get("relay"):
        header += f" relay={journey['relay']}"
    lines = [header]
    stages = journey["stages"]
    covered = 0.0
    for index, stage in enumerate(stages):
        stage_s = stage["t1"] - stage["t0"]
        covered += stage_s
        branch = "└─" if index == len(stages) - 1 else "├─"
        lines.append(f"  {branch} {stage['name']:<22} "
                     f"+{stage['t0'] - journey['t0']:.6f}s  "
                     f"{stage_s * 1e3:.3f} ms")
    gap = journey["duration"] - covered
    lines.append(f"     {UNATTRIBUTED:<22} {gap * 1e3:>14.3f} ms")
    return "\n".join(lines)


def attribution_sections(report: Dict[str, Any],
                         chain: Optional[Dict[str, Any]],
                         title: str) -> List[Section]:
    """The attribution table and the longest chain's span tree — or,
    with no completed journeys, a note on the page saying so."""
    if not report["journeys"]:
        return [Text("No completed Packet-In journeys in this window.",
                     title=title, page_only=True)]
    sections: List[Section] = [
        Table(title, ["stage", "count", "total (s)", "share", "p50 (ms)",
                      "p95 (ms)", "p99 (ms)", "max (ms)"],
              attribution_rows(report))]
    if chain is not None:
        sections.append(Text(format_tree(chain), title="Longest chain"))
    return sections


def attribution_line(report: Dict[str, Any]) -> str:
    return (f"attribution: {report['journeys']} journeys, "
            f"{report['total_s']:.6f} s total, reconciliation max gap "
            f"{report['reconciliation']['max_abs_gap_s']:.3e} s")


def report_jsonl(report: Dict[str, Any],
                 chain: Optional[Dict[str, Any]] = None) -> str:
    """Attribution report as JSON lines behind the ``critpath`` schema
    header: the summary, then one line per stage, then the longest
    chain when given.  :func:`read_report` is the inverse."""
    from repro.obs.artifacts import CRITPATH, schema_line

    lines = [schema_line(CRITPATH),
             canonical_json({"type": "critpath_summary",
                             "journeys": report["journeys"],
                             "total_s": report["total_s"],
                             **report["reconciliation"]})]
    for name, stats in report["stages"].items():
        lines.append(canonical_json(
            {"type": "critpath_stage", "stage": name, **stats}))
    if chain is not None:
        plain = {k: v for k, v in chain.items() if k != "stages"}
        plain["stages"] = [
            {"name": s["name"], "t0": s["t0"], "t1": s["t1"]}
            for s in chain["stages"]
        ]
        lines.append(canonical_json({"type": "critpath_longest", **plain}))
    return "\n".join(lines) + "\n"


def read_report(records: List[Dict[str, Any]],
                ) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """``(report, chain)`` back from :func:`report_jsonl` payload
    records, in the shapes :func:`attribute` / :func:`longest_chain`
    return."""
    report: Dict[str, Any] = {"journeys": 0, "total_s": 0.0, "stages": {},
                              "reconciliation": {}}
    chain = None
    for record in records:
        body = {k: v for k, v in record.items() if k != "type"}
        if record["type"] == "critpath_summary":
            report["journeys"] = body.pop("journeys")
            report["total_s"] = body.pop("total_s")
            report["reconciliation"] = body
        elif record["type"] == "critpath_stage":
            report["stages"][body.pop("stage")] = body
        elif record["type"] == "critpath_longest":
            chain = body
    return report, chain
