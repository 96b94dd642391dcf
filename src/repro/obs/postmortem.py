"""Postmortem bundles: the "why", captured at the moment of failure.

When an alert fires (:class:`~repro.obs.health.HealthEngine` transition
callback) or an invariant trips
(:class:`~repro.faults.invariants.InvariantChecker.on_violation`), a
:class:`PostmortemCollector` freezes everything a person needs to
explain the failure, *at the time it happened*:

* the trigger itself (time, kind, name, detail, producing event id);
* the **causal ancestry** of the triggering simulator event — the
  engine's provenance chain (:meth:`repro.sim.engine.Simulator.ancestry`),
  bounded in depth;
* the **flight-recorder window** — recent dispatched events, completed
  trace spans and counter deltas (:mod:`repro.obs.flight`);
* the active alert/fault context — alerts currently firing, injected
  faults currently open;
* a deterministic run **context** (seed, rates, config) supplied by the
  scenario.

Bundles contain only simulation-derived values (no wall clock, no
platform strings, no object reprs), so two same-seed runs emit
byte-identical bundle files — ``tests/test_postmortem.py`` pins this.
Serialization is JSONL with typed records behind a schema header
(:mod:`repro.obs.artifacts`, kind ``postmortem``).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.obs.report import canonical_json

#: Keep at most this many bundles per run (first-N; later triggers are
#: counted in ``dropped`` rather than collected).
MAX_BUNDLES = 16
#: Ancestry depth bound.
MAX_DEPTH = 48


def open_faults(log: List[Dict[str, Any]], now: float) -> List[Dict[str, Any]]:
    """Fault windows still open at ``now``, from an injector log.

    ``inject``/``down`` opens a ``(kind, target)`` window,
    ``clear``/``up`` closes it; self-expiring faults (entries carrying a
    ``duration`` detail, e.g. ``ofa_stall``) auto-close at
    ``t + duration``.
    """
    windows: Dict[tuple, Dict[str, Any]] = {}
    for entry in log:
        t = float(entry["t"])
        if t > now:
            break
        key = (entry["kind"], entry["target"])
        phase = entry["phase"]
        if phase in ("inject", "down"):
            until = None
            if "duration" in entry:
                until = t + float(entry["duration"])
            windows[key] = {"kind": entry["kind"], "target": entry["target"],
                            "since": t, "until": until}
        elif phase in ("clear", "up"):
            windows.pop(key, None)
    out = []
    for key in sorted(windows):
        window = windows[key]
        until = window.pop("until")
        if until is not None and now >= until:
            continue
        out.append(window)
    return out


class PostmortemCollector:
    """Builds bundles on alert firings and invariant violations.

    Wire it up with ``health.on_transition = collector.on_alert`` and
    ``checker.on_violation = collector.on_violation`` (scenario.run does
    both when ``postmortem=True``).  The collector only reads — it
    never schedules events or mutates model state, so a collecting run
    stays bit-identical to a non-collecting one.
    """

    def __init__(
        self,
        sim: Any,
        flight: Optional[Any] = None,
        injector: Optional[Any] = None,
        context: Optional[Dict[str, Any]] = None,
    ):
        self.sim = sim
        self.flight = flight
        self.injector = injector
        self.context = dict(context or {})
        self.bundles: List[Dict[str, Any]] = []
        #: Triggers past the bundle cap (counted, not collected).
        self.dropped = 0
        self._firing: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Trigger entry points
    # ------------------------------------------------------------------
    def on_alert(self, record: Dict[str, Any]) -> None:
        """Health-engine transition feed; bundles on ``firing``."""
        name = str(record.get("alert"))
        state = record.get("state")
        if state == "firing":
            self._firing[name] = float(record["t"])
            self._trigger("alert", name, {
                "sli": record.get("sli"),
                "value": record.get("value"),
                "severity": record.get("severity"),
            })
        elif state == "resolved":
            self._firing.pop(name, None)

    def on_violation(self, violation: Any) -> None:
        """Invariant-checker feed; bundles on every violation."""
        self._trigger("invariant", violation.name,
                      {"detail": violation.detail})

    # ------------------------------------------------------------------
    def _trigger(self, kind: str, name: str, detail: Dict[str, Any]) -> None:
        if len(self.bundles) >= MAX_BUNDLES:
            self.dropped += 1
            return
        sim = self.sim
        event = sim.current_event_id
        if self.flight is not None:
            flight = self.flight.window()
        else:
            flight = {"events": [], "spans": [], "metric_deltas": {}}
        self.bundles.append({
            "trigger": {
                "index": len(self.bundles),
                "t": round(sim.now, 9),
                "kind": kind,
                "name": name,
                "detail": {key: detail[key] for key in sorted(detail)
                           if detail[key] is not None},
                "event": None if event is None else [event[0], event[1]],
            },
            "ancestry": sim.ancestry(max_depth=MAX_DEPTH),
            "flight": flight,
            "alerts_firing": [{"alert": alert, "since": since}
                              for alert, since in sorted(self._firing.items())],
            "faults_open": (open_faults(self.injector.log, sim.now)
                            if self.injector is not None else []),
            "context": self.context,
        })


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def bundle_jsonl(bundle: Dict[str, Any]) -> str:
    """One bundle as JSONL: schema header, then typed records, in a
    fixed order — byte-identical across same-seed runs."""
    from repro.obs.artifacts import POSTMORTEM, schema_line

    lines = [schema_line(POSTMORTEM)]
    lines.append(canonical_json({"type": "trigger", **bundle["trigger"]}))
    for depth, ancestor in enumerate(bundle["ancestry"]):
        lines.append(canonical_json(
            {"type": "ancestor", "depth": depth, **ancestor}))
    flight = bundle["flight"]
    for event in flight["events"]:
        lines.append(canonical_json({"type": "flight_event", **event}))
    for span in flight["spans"]:
        lines.append(canonical_json({"type": "flight_span", "span": span}))
    for name, delta in flight["metric_deltas"].items():
        lines.append(canonical_json(
            {"type": "metric_delta", "name": name, "delta": delta}))
    for alert in bundle["alerts_firing"]:
        lines.append(canonical_json({"type": "alert_context", **alert}))
    for fault in bundle["faults_open"]:
        lines.append(canonical_json({"type": "fault_open", **fault}))
    lines.append(canonical_json({"type": "context", **bundle["context"]}))
    return "\n".join(lines) + "\n"


def bundle_filename(bundle: Dict[str, Any]) -> str:
    trigger = bundle["trigger"]
    safe = "".join(c if c.isalnum() or c in "-_" else "_"
                   for c in str(trigger["name"]))
    return f"postmortem-{trigger['index']:03d}-{trigger['kind']}-{safe}.jsonl"


def export_bundles(bundles: List[Dict[str, Any]], directory: str) -> List[str]:
    """Write every bundle under ``directory``; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for bundle in bundles:
        path = os.path.join(directory, bundle_filename(bundle))
        with open(path, "w") as handle:
            handle.write(bundle_jsonl(bundle))
        paths.append(path)
    return paths


def read_bundle(path: str) -> Dict[str, Any]:
    """Load a bundle file back into the in-memory bundle shape."""
    from repro.obs.artifacts import read_jsonl

    bundle: Dict[str, Any] = {
        "trigger": {}, "ancestry": [],
        "flight": {"events": [], "spans": [], "metric_deltas": {}},
        "alerts_firing": [], "faults_open": [], "context": {},
    }
    for record in read_jsonl(path):
        kind = record.pop("type", None)
        if kind == "trigger":
            bundle["trigger"] = record
        elif kind == "ancestor":
            record.pop("depth", None)
            bundle["ancestry"].append(record)
        elif kind == "flight_event":
            bundle["flight"]["events"].append(record)
        elif kind == "flight_span":
            bundle["flight"]["spans"].append(record["span"])
        elif kind == "metric_delta":
            bundle["flight"]["metric_deltas"][record["name"]] = \
                record["delta"]
        elif kind == "alert_context":
            bundle["alerts_firing"].append(record)
        elif kind == "fault_open":
            bundle["faults_open"].append(record)
        elif kind == "context":
            bundle["context"] = record
    return bundle
