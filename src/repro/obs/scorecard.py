"""Detection scorecard: alert timeline vs fault-injection ground truth.

The :class:`~repro.faults.injector.FaultInjector` logs every action it
takes; :func:`truth_windows` turns that log into per-fault ``[t0, t1]``
ground-truth windows.  :func:`build_scorecard` joins them against the
health engine's alert timeline and reports, per fault class, whether a
rule *declaring* that class (its ``detects`` list) fired while the
fault was active — detection latency, recall — and, per rule, how many
firings matched any declared truth window (precision).

A firing counts for a window when the two intervals overlap, allowing
the firing to start up to ``tolerance`` seconds after the window ends
(detection necessarily lags injection by the SLI window plus the rule's
hold time).  The scorecard is pure data + pure functions over
deterministic inputs, so it is as reproducible as the run itself.

Also here: the end-of-run health report (:func:`health_sections` — SLI
time series with alert/truth bands, the alert timeline, the scorecard),
as sections for :mod:`repro.obs.report` to render as text or as a page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.report import (
    Bands,
    Chart,
    Section,
    Table,
    Text,
    canonical_json,
)
from repro.obs.rules import AlertRule

#: The synthetic fault class covering deliberate flood traffic: the
#: chaos scenario's flash crowd is ground truth for the OFA-overload
#: rule even though the injector never "injects" it.
FLASH_CROWD = "flash_crowd"


@dataclass(frozen=True)
class TruthWindow:
    """One ground-truth fault activity interval."""

    cls: str
    target: str
    t0: float
    t1: float


def truth_windows(
    fault_log: Sequence[Dict[str, object]],
    run_end: float,
    extra: Sequence[TruthWindow] = (),
) -> List[TruthWindow]:
    """Ground-truth windows from a :class:`FaultInjector` log.

    An ``inject`` entry opens a window; a ``clear`` entry for the same
    (kind, target) closes it; flap ``up`` entries keep extending the
    window so it ends at the last restore.  An inject that carries a
    ``duration`` (``ofa_stall`` logs no clear) closes itself.  Anything
    still open at the end of the run closes at ``run_end``.
    """
    windows: List[List[object]] = []  # [cls, target, t0, t1, closed]
    open_index: Dict[Tuple[str, str], int] = {}
    for entry in fault_log:
        kind = str(entry["kind"])
        target = str(entry.get("target") or "")
        phase = entry.get("phase")
        t = float(entry["t"])  # type: ignore[arg-type]
        key = (kind, target)
        if phase == "inject":
            duration = entry.get("duration")
            if duration is not None:
                t1 = min(run_end, t + float(duration))  # type: ignore[arg-type]
                windows.append([kind, target, t, t1, True])
            else:
                windows.append([kind, target, t, run_end, False])
                open_index[key] = len(windows) - 1
        elif phase in ("clear", "up"):
            index = open_index.get(key)
            if index is not None and not windows[index][4]:
                windows[index][3] = max(float(windows[index][2]), t)
                if phase == "clear":
                    windows[index][4] = True
                    del open_index[key]
    out = [TruthWindow(str(w[0]), str(w[1]), float(w[2]), float(w[3]))
           for w in windows]
    out.extend(extra)
    out.sort(key=lambda w: (w.t0, w.cls, w.target))
    return out


@dataclass
class ClassScore:
    """Detection outcome for one fault class."""

    cls: str
    injected: int = 0
    detected: int = 0
    latencies: List[float] = field(default_factory=list)
    detected_by: List[str] = field(default_factory=list)

    @property
    def recall(self) -> float:
        return self.detected / self.injected if self.injected else 1.0


@dataclass
class RuleScore:
    """Firing accounting for one alert rule."""

    rule: str
    firings: int = 0
    true_positives: int = 0

    @property
    def false_positives(self) -> int:
        return self.firings - self.true_positives

    @property
    def precision(self) -> float:
        return self.true_positives / self.firings if self.firings else 1.0


@dataclass
class Scorecard:
    """The joined detection report."""

    classes: Dict[str, ClassScore]
    rules: Dict[str, RuleScore]
    false_positives: List[Tuple[str, float, float]]
    tolerance: float

    @property
    def recall(self) -> float:
        injected = sum(s.injected for s in self.classes.values())
        if not injected:
            return 1.0
        return sum(s.detected for s in self.classes.values()) / injected

    @property
    def precision(self) -> float:
        firings = sum(s.firings for s in self.rules.values())
        if not firings:
            return 1.0
        return sum(s.true_positives for s in self.rules.values()) / firings

    @property
    def all_detected(self) -> bool:
        return all(s.detected == s.injected for s in self.classes.values())

    @property
    def clean(self) -> bool:
        return not self.false_positives


def firings_from_timeline(
    timeline: Sequence[Dict[str, object]], run_end: float,
) -> List[Tuple[str, float, float]]:
    """``(rule, t0, t1)`` firing intervals from timeline transitions;
    still-open firings clamp to ``run_end``."""
    out: List[Tuple[str, float, float]] = []
    open_at: Dict[str, float] = {}
    for record in timeline:
        name = str(record["alert"])
        state = record["state"]
        t = float(record["t"])  # type: ignore[arg-type]
        if state == "firing":
            open_at[name] = t
        elif state == "resolved":
            t0 = open_at.pop(name, None)
            if t0 is not None:
                out.append((name, t0, t))
    for name in sorted(open_at):
        out.append((name, open_at[name], run_end))
    out.sort(key=lambda item: (item[1], item[0]))
    return out


def _matches(firing: Tuple[str, float, float], window: TruthWindow,
             tolerance: float) -> bool:
    _, t0, t1 = firing
    return t0 <= window.t1 + tolerance and t1 >= window.t0


def build_scorecard(
    rules: Sequence[AlertRule],
    timeline: Sequence[Dict[str, object]],
    truth: Sequence[TruthWindow],
    run_end: float,
    tolerance: float = 1.0,
) -> Scorecard:
    """Join the alert timeline against the ground-truth windows."""
    firings = firings_from_timeline(timeline, run_end)
    detects = {rule.name: frozenset(rule.detects) for rule in rules}

    classes: Dict[str, ClassScore] = {}
    for window in truth:
        score = classes.setdefault(window.cls, ClassScore(cls=window.cls))
        score.injected += 1
        matched = [f for f in firings
                   if window.cls in detects.get(f[0], frozenset())
                   and _matches(f, window, tolerance)]
        if matched:
            score.detected += 1
            first = min(matched, key=lambda f: f[1])
            score.latencies.append(max(0.0, first[1] - window.t0))
            for name in sorted({f[0] for f in matched}):
                if name not in score.detected_by:
                    score.detected_by.append(name)

    rule_scores: Dict[str, RuleScore] = {
        rule.name: RuleScore(rule=rule.name) for rule in rules}
    false_positives: List[Tuple[str, float, float]] = []
    for firing in firings:
        score = rule_scores.setdefault(firing[0], RuleScore(rule=firing[0]))
        score.firings += 1
        declared = detects.get(firing[0], frozenset())
        if any(w.cls in declared and _matches(firing, w, tolerance)
               for w in truth):
            score.true_positives += 1
        else:
            false_positives.append(firing)

    return Scorecard(classes=classes, rules=rule_scores,
                     false_positives=false_positives, tolerance=tolerance)


# ----------------------------------------------------------------------
# Report sections (rendered by repro.obs.report)
# ----------------------------------------------------------------------
def scorecard_sections(scorecard: Scorecard) -> List[Section]:
    """The scorecard as two tables and a summary line."""
    class_rows = []
    for cls in sorted(scorecard.classes):
        score = scorecard.classes[cls]
        latency = (f"{sum(score.latencies) / len(score.latencies):.2f}"
                   if score.latencies else "-")
        class_rows.append([
            cls, score.injected, score.detected, f"{score.recall:.2f}",
            latency, ",".join(score.detected_by) or "-",
        ])
    rule_rows = []
    for name in sorted(scorecard.rules):
        score = scorecard.rules[name]
        rule_rows.append([
            name, score.firings, score.true_positives,
            score.false_positives, f"{score.precision:.2f}",
        ])
    return [
        Table("Detection scorecard — per fault class",
              ["fault class", "injected", "detected", "recall",
               "latency (s)", "detected by"], class_rows),
        Table("Detection scorecard — per rule",
              ["rule", "firings", "true pos", "false pos", "precision"],
              rule_rows),
        Text(f"detection: recall {scorecard.recall:.2f}, precision "
             f"{scorecard.precision:.2f}, {len(scorecard.false_positives)} "
             f"false positives (match tolerance {scorecard.tolerance:.1f}s)"),
    ]


def health_sections(
    series: Dict[str, List[Tuple[float, float]]],
    timeline: Sequence[Dict[str, object]],
    run_end: float,
    truth: Sequence[TruthWindow] = (),
    scorecard: Optional[Scorecard] = None,
) -> List[Section]:
    """The end-of-run health report: every SLI's time series with the
    alert firings and the ground-truth fault windows as bands, the
    alert timeline (on the page only — a terminal gets the bands), and
    the detection scorecard when one was built."""
    firings = firings_from_timeline(timeline, run_end)
    sections: List[Section] = [
        Chart("Health report", run_end, series, bands=(
            Bands("alerts", "firing", "#", "#d33", {
                name: [(t0, t1) for rule, t0, t1 in firings if rule == name]
                for name in sorted({rule for rule, _, _ in firings})}),
            Bands("ground truth", "fault active", "=", "#f6c344", {
                cls: [(w.t0, w.t1) for w in truth if w.cls == cls]
                for cls in sorted({w.cls for w in truth})}),
        )),
        Table("Alert timeline",
              ["t (s)", "alert", "state", "SLI", "value", "severity"],
              [[record.get(key) for key in
                ("t", "alert", "state", "sli", "value", "severity")]
               for record in timeline], page_only=True),
    ]
    if scorecard is not None:
        sections += scorecard_sections(scorecard)
    return sections


def scorecard_json(scorecard: Scorecard) -> str:
    """The scorecard as one deterministic JSON object (machine use)."""
    payload = {
        "tolerance": scorecard.tolerance,
        "recall": round(scorecard.recall, 6),
        "precision": round(scorecard.precision, 6),
        "classes": {
            cls: {
                "injected": s.injected,
                "detected": s.detected,
                "recall": round(s.recall, 6),
                "latencies": [round(l, 6) for l in s.latencies],
                "detected_by": list(s.detected_by),
            }
            for cls, s in sorted(scorecard.classes.items())
        },
        "rules": {
            name: {
                "firings": s.firings,
                "true_positives": s.true_positives,
                "false_positives": s.false_positives,
                "precision": round(s.precision, 6),
            }
            for name, s in sorted(scorecard.rules.items())
        },
        "false_positives": [
            {"rule": f[0], "t0": f[1], "t1": f[2]}
            for f in scorecard.false_positives
        ],
    }
    return canonical_json(payload)


def scorecard_from_payload(payload: Dict[str, Any]) -> Scorecard:
    """The inverse of :func:`scorecard_json` (latencies come back
    rounded to the microsecond; every count is exact)."""
    return Scorecard(
        classes={cls: ClassScore(cls, s["injected"], s["detected"],
                                 list(s["latencies"]), list(s["detected_by"]))
                 for cls, s in payload["classes"].items()},
        rules={name: RuleScore(name, s["firings"], s["true_positives"])
               for name, s in payload["rules"].items()},
        false_positives=[(f["rule"], f["t0"], f["t1"])
                         for f in payload["false_positives"]],
        tolerance=payload["tolerance"])
