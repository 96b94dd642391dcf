"""Structured, simulation-time span/event tracing.

A :class:`Tracer` records *spans* (named intervals of simulation time
with key/value args) and *instants*.  Components open a span with
:meth:`begin`, stash the returned id wherever their context lives (for
the control path: ``packet.metadata``), and close it with :meth:`end`
possibly many events later.  Records are completed in deterministic
simulation order, so two runs with the same seed export byte-identical
JSONL files — the property `tests/test_obs_determinism.py` locks in.

Exports:

* :meth:`export_jsonl` — one JSON object per line, stable key order;
  the format `scotch-repro inspect` and the obs test-suite consume.
* :meth:`export_chrome` — Chrome ``trace_event`` JSON; open the file in
  ``chrome://tracing`` or https://ui.perfetto.dev.  Tracks map to
  threads (named via metadata events), runs map to processes, so a
  multi-deployment experiment (e.g. a figure sweep) stays readable.

Timestamps are **simulation seconds** (exported as microseconds in the
Chrome file).  Wall-clock never enters a trace — that is the
profiler's job (:mod:`repro.obs.profiler`) — because wall times would
break reproducibility.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.report import canonical_json

#: Instant-event scope in the Chrome format ("t" = thread).
_CHROME_INSTANT_SCOPE = "t"


class Tracer:
    """Collects spans/instants across one or more bound simulators.

    Every record carries its span ``id`` and the ``(run, seq)`` id of
    the simulator event that produced it (``ev``), linking spans into
    the engine's causal DAG (:class:`~repro.obs.Observability` turns
    provenance on for every simulator it traces); stage spans keep their
    ``journey=`` link to the enclosing Packet-In span.
    """

    enabled = True

    def __init__(self) -> None:
        #: Completed records, in completion (simulation) order.
        self._records: List[Dict[str, Any]] = []
        #: span id -> open record.
        self._open: Dict[int, Dict[str, Any]] = {}
        self._next_id = 0
        self._now = lambda: 0.0
        #: Index of the currently bound simulator (a figure sweep builds
        #: several); stamped on every record, mapped to a Chrome pid.
        self.run = -1
        #: A :class:`~repro.obs.flight.FlightRecorder` fed every
        #: *completed* record, or None.
        self.flight: Optional[Any] = None
        self._sim: Optional[Any] = None

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, sim: Any, run: Optional[int] = None) -> None:
        """Attach to ``sim``'s clock; called by Observability.bind()."""
        self.run = (self.run + 1) if run is None else run
        self._now = lambda: sim.now
        self._sim = sim

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, track: str = "main", **args: Any) -> int:
        """Open a span; returns its id for :meth:`end`/:meth:`annotate`."""
        span_id = self._next_id
        self._next_id += 1
        record: Dict[str, Any] = {
            "type": "span",
            "run": self.run,
            "name": name,
            "cat": "control",
            "track": track,
            "t0": self._now(),
            "t1": None,
            "args": dict(args),
            "id": span_id,
            "ev": self._event_id(),
        }
        self._open[span_id] = record
        return span_id

    def _event_id(self) -> Optional[List[int]]:
        sim = self._sim
        if sim is None:
            return None
        ev = sim.current_event_id
        return None if ev is None else [ev[0], ev[1]]

    def end(self, span_id: int, **args: Any) -> None:
        """Close a span (idempotent: unknown/already-closed ids are
        ignored, so double-close along error paths is safe)."""
        record = self._open.pop(span_id, None)
        if record is None:
            return
        record["t1"] = self._now()
        if args:
            record["args"].update(args)
        self._records.append(record)
        if self.flight is not None:
            self.flight.record_span(record)

    def annotate(self, span_id: int, **args: Any) -> None:
        """Attach args to a still-open span."""
        record = self._open.get(span_id)
        if record is not None:
            record["args"].update(args)

    def instant(self, name: str, track: str = "main", **args: Any) -> None:
        now = self._now()
        record: Dict[str, Any] = {
            "type": "instant",
            "run": self.run,
            "name": name,
            "cat": "control",
            "track": track,
            "t0": now,
            "t1": now,
            "args": dict(args),
            "id": self._next_id,
            "ev": self._event_id(),
        }
        self._next_id += 1
        self._records.append(record)
        if self.flight is not None:
            self.flight.record_span(record)

    def elapsed(self, span_id: int) -> Optional[float]:
        """Simulation time since an open span began (None if unknown)."""
        record = self._open.get(span_id)
        return None if record is None else self._now() - record["t0"]

    # ------------------------------------------------------------------
    # Access / export
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """All records: completed ones in completion order, then any
        still-open spans (in-flight at simulation end, ``t1`` None) by
        span id."""
        out = list(self._records)
        out.extend(self._open[i] for i in sorted(self._open))
        return out

    def export_jsonl(self, path: str) -> int:
        """Write one record per line (after the schema header); returns
        the payload record count."""
        from repro.obs.artifacts import TRACE, write_jsonl

        records = self.records()
        write_jsonl(path, TRACE, map(canonical_json, records))
        return len(records)

    def export_chrome(self, path: str) -> int:
        """Write Chrome ``trace_event`` JSON; returns the event count."""
        events = chrome_events(self.records())
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle, sort_keys=True, separators=(",", ":"))
        return len(events)


def chrome_events(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Convert tracer/JSONL records to ``trace_event`` dicts."""
    events: List[Dict[str, Any]] = []
    tids: Dict[Any, int] = {}
    for record in records:
        key = (record["run"], record["track"])
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": record["run"],
                "tid": tid, "args": {"name": record["track"]},
            })
        t0 = record["t0"]
        t1 = record["t1"] if record["t1"] is not None else t0
        base = {
            "name": record["name"],
            "cat": record["cat"],
            "pid": record["run"],
            "tid": tid,
            "ts": round(t0 * 1e6, 3),
            "args": record["args"],
        }
        if record["type"] == "instant":
            base.update(ph="i", s=_CHROME_INSTANT_SCOPE)
        else:
            base.update(ph="X", dur=round((t1 - t0) * 1e6, 3))
        events.append(base)
    return events
