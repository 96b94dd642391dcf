"""The flight recorder: bounded ring buffers of recent activity.

A :class:`FlightRecorder` keeps the last-N dispatched engine events,
the last-N completed trace spans/instants, and counter deltas since the
last :meth:`mark` — cheap enough (one deque append per event, one per
completed span) to leave on for entire chaos runs, and the raw material
of postmortem bundles (:mod:`repro.obs.postmortem`): when an alert
fires or an invariant trips, :meth:`window` freezes the recent past
into a deterministic snapshot.

Everything captured is simulation-derived, so two same-seed runs
produce identical windows — the byte-identity property the postmortem
tests pin.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

#: Ring depths: enough to cover the dispatch storm around a fault
#: without holding more than a few hundred tuples alive.
EVENTS = 256
SPANS = 128


class FlightRecorder:
    """Bounded, deterministic rings of recent events/spans/metric deltas."""

    def __init__(self):
        #: Fed inline by the engine dispatch loop: the seq of each fired
        #: event, resolved through the engine's provenance tables.
        self.events: Deque[int] = deque(maxlen=EVENTS)
        #: Fed by the tracer on every completed span/instant (record
        #: dict references; the tracer owns them).
        self.spans: Deque[Dict[str, Any]] = deque(maxlen=SPANS)
        self._registry: Optional[Any] = None
        self._marks: Dict[str, int] = {}
        self._sim: Optional[Any] = None

    # ------------------------------------------------------------------
    # Wiring (called by Observability.bind / faults.scenario.run)
    # ------------------------------------------------------------------
    def bind(self, sim: Any, run: int = 0) -> None:
        """Attach the event ring to ``sim``'s dispatch loop, turning on
        causal provenance (run index ``run``) if it is off — the ring
        holds bare seqs that only provenance can resolve."""
        if not sim.provenance_enabled:
            sim.enable_provenance(run=run)
        self._sim = sim
        sim.set_flight_feed(self.events)

    def attach_metrics(self, registry: Any) -> None:
        """Track counter deltas of ``registry`` between marks."""
        if getattr(registry, "enabled", False):
            self._registry = registry
            self.mark()

    def record_span(self, record: Dict[str, Any]) -> None:
        """Tracer feed: one completed span/instant record."""
        self.spans.append(record)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Reset the counter-delta baseline to the current values."""
        if self._registry is not None:
            self._marks = {name: counter.value for name, counter
                           in self._registry.counters.items()}

    def counter_deltas(self) -> Dict[str, int]:
        """Counter increments since the last :meth:`mark` (zero-delta
        counters omitted), sorted by name."""
        if self._registry is None:
            return {}
        deltas: Dict[str, int] = {}
        for name in sorted(self._registry.counters):
            delta = (self._registry.counters[name].value
                     - self._marks.get(name, 0))
            if delta:
                deltas[name] = delta
        return deltas

    def window(self) -> Dict[str, Any]:
        """Freeze the recent past into a plain, deterministic dict.

        Returns ``{"events": [...], "spans": [...], "metric_deltas":
        {...}}`` with events rendered as ``{"run", "t", "seq",
        "callback"}`` (names resolved via the engine's deterministic
        :func:`~repro.sim.engine.callback_name`) and spans as shallow
        copies of the tracer records.  The counter-delta baseline
        advances, so consecutive windows report disjoint increments.
        """
        events: List[Dict[str, Any]] = []
        for seq in self.events:
            # Resolved through the engine's provenance tables, dropping
            # the parent link: flight events keep the flat 4-key shape.
            info = self._sim.event_info(seq) if self._sim else None
            if info is None:
                events.append({"run": 0, "t": 0.0, "seq": seq,
                               "callback": "(unknown)"})
            else:
                events.append({"run": info["run"], "t": info["t"],
                               "seq": seq, "callback": info["callback"]})
        spans = [dict(record) for record in self.spans]
        window = {
            "events": events,
            "spans": spans,
            "metric_deltas": self.counter_deltas(),
        }
        self.mark()
        return window
