"""Deterministic discrete-event simulation engine.

The calendar is a binary heap of ``(time, seq, event)`` tuples, one per
scheduled event.  ``seq`` is the simulator-wide scheduling counter, so
it is unique: ``heapq`` orders entries with C-level float and int
comparisons and never reaches the :class:`Event` (which defines no
ordering).  Simultaneous events fire in the order they were scheduled,
so every run with the same seed and the same model code is bit-for-bit
reproducible; ``tests/golden/`` pins the resulting event order, and
``tests/test_sim_engine_properties.py`` checks the engine against a
brute-force list model.

One tuple per event replaced a calendar of *time slots* (one heap entry
per distinct timestamp, same-time events appended to it).  Slots paid
off only when many events share an instant; since every packet-hop is
one event (``switch/datapath.py``), few do.  At ``benchmarks/e2e``'s
scale 0.5, seed 1, only 1.9 % (``elephant_mix``), 3.1 %
(``pool_failover``), 8.9 % (``chaos_health``) and 20.7 %
(``flashcrowd_scale``, nearly all of them the 504 switches' aligned
expiry sweeps) of scheduled events landed in an existing slot, so
almost every event paid a slot-index dict insert and delete, two list
allocations and the slot-drain bookkeeping for nothing.

Cancellation is O(1): :meth:`Event.cancel` flags the event, releases its
callback and arguments, and settles the foreground count at once, so a
cancelled foreground event never keeps an un-horizoned :meth:`run`
alive.  The tuple stays in the heap until it reaches the head, where
:meth:`Simulator.run` or :meth:`Simulator.peek` discards it.  The
counters are derived, not kept per event: ``heap_depth`` is the heap's
length and ``pending`` subtracts the cancelled entries still in it.

**Causal provenance** (off by default; every simulator a tracing
:class:`~repro.obs.Observability` binds turns it on, as does a flight
recorder): when on,
:meth:`Simulator.schedule` records each new event's *parent* — the
event whose callback scheduled it — so a run carries a causal DAG
addressed by compact ``(run, seq)`` ids.  :meth:`ancestry` walks the
chain backwards (bounded depth) and is what postmortem bundles slice.
Provenance, the flight-recorder feed and the per-event hook share one
``_instrumented`` flag, so the default dispatch loop pays a single
check per event for all three.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.base import get_default_obs
from repro.sim.rng import RngRegistry

def callback_name(callback: Any) -> str:
    """A deterministic, human-readable name for an event callback.

    Never falls back to ``repr()`` — reprs of bound methods and partials
    embed memory addresses, which would break the byte-identity contract
    of provenance exports and postmortem bundles.
    """
    name = getattr(callback, "__qualname__", None)
    if name is not None:
        return name
    inner = getattr(callback, "func", None)  # functools.partial
    if inner is not None:
        return callback_name(inner)
    return type(callback).__name__


class SimulationError(Exception):
    """Raised on misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code only ever needs
    :meth:`cancel` and :attr:`time`.

    ``daemon`` events are housekeeping (periodic rule-expiry sweeps,
    monitor ticks): they never keep an otherwise-finished simulation
    alive — :meth:`Simulator.run` without a horizon stops once only
    daemon events remain.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "daemon",
                 "fired", "_sim")

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent; safe after firing.

        Cancellation settles the owning simulator's accounting
        immediately (O(1)): a cancelled foreground event stops counting
        toward the work that keeps an un-horizoned run alive, and the
        callback/argument references are released right away.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self._sim
        sim._cancelled += 1
        if not self.daemon:
            sim._foreground_pending -= 1
        # Release closures/payloads now rather than when the calendar
        # eventually reaches this entry.
        self.callback = None  # type: ignore[assignment]
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else (" fired" if self.fired else "")
        return f"<Event t={self.time:.6f} #{self.seq} {name}{state}>"


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator(seed=1)
        sim.schedule(0.5, my_callback, arg1)
        sim.run(until=10.0)

    ``sim.now`` is the current simulation time in seconds.  All model
    components take the simulator instance in their constructor and use it
    for both time and randomness (via :attr:`rng`).
    """

    def __init__(self, seed: int = 0, obs: Optional[Any] = None):
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        #: Heap of ``(time, seq, event)``: one entry per scheduled
        #: event, cancelled ones included until they reach the head.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        #: Live (scheduled, not fired, not cancelled) non-daemon events;
        #: when this reaches zero, an un-horizoned run() ends.
        self._foreground_pending = 0
        #: Cancelled events still in the heap (``pending`` subtracts them).
        self._cancelled = 0
        #: Total events dispatched over this simulator's lifetime (the
        #: benchmarks' events/sec numerator).
        self.events_fired = 0
        #: Observability context (tracer/metrics/profiler).  Defaults to
        #: the process-wide default (a no-op unless e.g. the CLI installed
        #: a live one); components reach it as ``self.sim.obs``.
        self.obs = obs if obs is not None else get_default_obs()
        #: Called as ``hook(event, wall_seconds, heap_depth)`` after each
        #: fired event; None (the default) keeps the loop overhead-free.
        self._event_hook: Optional[Callable[[Event, float, int], None]] = None
        # -- causal provenance (off by default; see enable_provenance) --
        self._prov_enabled = False
        self._prov_run = 0
        self._prov_base = 0
        #: Provenance storage, indexed by ``seq - _prov_base``: parent
        #: seq (-1 for events scheduled outside any callback), fire
        #: time, and an id into the interned callback-name table.  All
        #: three are ``array`` buffers — untracked C storage — and the
        #: name table is interned at schedule time through a
        #: shared-identity key (``__func__``/``__code__``), so the
        #: history never retains a callback object.  Retaining even
        #: transiently measured ~15% of chaos-run wall time: callbacks
        #: promoted out of gen-0 before release inflate the cyclic GC's
        #: full-collection rate.  Untracked buffers keep provenance
        #: inside the <5% overhead budget.
        self._prov_parent = array("q")
        self._prov_time = array("d")
        self._prov_cb_id = array("q")
        self._prov_names: List[str] = []
        self._prov_name_ix: Dict[Any, int] = {}
        #: seq of the event whose callback is currently running (-1
        #: between events) — the parent every schedule() records.
        self._dispatch_seq = -1
        #: Flight-recorder feed: a bounded deque the dispatch loop
        #: appends each event's seq to (provenance resolves it later).
        self._flight: Optional[Any] = None
        #: True while provenance, the flight feed or the event hook is
        #: on: the default hot loop pays a single ``if`` for all three.
        self._instrumented = False
        self.obs.bind(self)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any,
                 daemon: bool = False) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # rejects negative and NaN in one comparison
            raise SimulationError(f"cannot schedule with negative/NaN delay {delay!r}")
        time = self.now + delay
        # Event construction is inlined (no __init__ call): schedule()
        # runs once per event and the call overhead is measurable.
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq = self._seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.daemon = daemon
        event.fired = False
        event._sim = self
        self._seq = seq + 1
        if self._prov_enabled:
            key = getattr(callback, "__func__", callback)
            cb_id = self._prov_name_ix.get(key)
            if cb_id is None:
                cb_id = self._prov_intern(callback, key)
            self._prov_parent.append(self._dispatch_seq)
            self._prov_time.append(time)
            self._prov_cb_id.append(cb_id)
        heappush(self._heap, (time, seq, event))
        if not daemon:
            self._foreground_pending += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any,
                    daemon: bool = False) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute time ``time``."""
        if not time >= self.now:  # rejects the past and NaN in one comparison
            raise SimulationError(
                f"cannot schedule at {time!r}, which is before now ({self.now!r})"
            )
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq = self._seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.daemon = daemon
        event.fired = False
        event._sim = self
        self._seq = seq + 1
        if self._prov_enabled:
            key = getattr(callback, "__func__", callback)
            cb_id = self._prov_name_ix.get(key)
            if cb_id is None:
                cb_id = self._prov_intern(callback, key)
            self._prov_parent.append(self._dispatch_seq)
            self._prov_time.append(time)
            self._prov_cb_id.append(cb_id)
        heappush(self._heap, (time, seq, event))
        if not daemon:
            self._foreground_pending += 1
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains or ``until`` is reached.

        Returns the simulation time when the run stopped.  When ``until``
        is given, the clock is advanced to exactly ``until`` even if the
        last event fired earlier (so rate computations over the run window
        are well defined).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        try:
            while heap:
                if until is None:
                    if not self._foreground_pending:
                        break  # only daemon housekeeping left
                elif heap[0][0] > until:
                    break
                time, _, event = heappop(heap)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.fired = True
                if not event.daemon:
                    self._foreground_pending -= 1
                self.now = time
                self.events_fired += 1
                if not self._instrumented:
                    event.callback(*event.args)
                else:
                    self._dispatch_seq = event.seq
                    if self._flight is not None:
                        # The provenance tables already hold (run, t,
                        # callback) for this seq; a bare int keeps the
                        # ring append allocation-free.
                        self._flight.append(event.seq)
                    hook = self._event_hook
                    if hook is None:
                        event.callback(*event.args)
                    else:
                        start = perf_counter()
                        event.callback(*event.args)
                        hook(event, perf_counter() - start, len(heap))
                if self._stopped:
                    break
        finally:
            self._running = False
            self._dispatch_seq = -1
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def set_event_hook(
        self, hook: Optional[Callable[[Event, float, int], None]]
    ) -> None:
        """Install (or clear, with None) the per-event profiling hook.
        The hook observes only — it must not mutate the calendar."""
        self._event_hook = hook
        self._update_instrumented()

    def _update_instrumented(self) -> None:
        self._instrumented = (self._prov_enabled or self._flight is not None
                              or self._event_hook is not None)

    # ------------------------------------------------------------------
    # Causal provenance + flight-recorder feed
    # ------------------------------------------------------------------
    def enable_provenance(self, run: int = 0) -> None:
        """Start recording each scheduled event's parent.

        Only events scheduled *after* this call enter the DAG (the run
        index and the current sequence number become the id base).
        Idempotent; there is deliberately no ``disable`` — a run either
        carries provenance or it does not, so ids stay unambiguous.
        """
        if self._prov_enabled:
            return
        self._prov_enabled = True
        self._prov_run = run
        self._prov_base = self._seq
        self._prov_parent = array("q")
        self._prov_time = array("d")
        self._prov_cb_id = array("q")
        self._prov_names = []
        self._prov_name_ix = {}
        self._update_instrumented()

    def _prov_intern(self, callback: Any, key: Any) -> int:
        """Slow path of the schedule-side name interning.

        The fast path keys on ``__func__`` (fresh-but-equal bound
        methods of one instance collapse to the shared function, which
        the interpreter keeps alive anyway).  A *fresh closure* misses
        that dict on every schedule, so it is resolved — and memoized —
        through its shared ``__code__`` instead; the closure object
        itself is never retained, only memo keys with program-lifetime
        identity (functions without free variables, code objects,
        name strings).  Distinct keys resolving to the same name share
        one id, keeping :attr:`_prov_names` canonical.
        """
        ix = self._prov_name_ix
        code = getattr(key, "__code__", None)
        if code is not None:
            cb_id = ix.get(code)
            if cb_id is None:
                cb_id = self._prov_intern_name(callback_name(callback))
                ix[code] = cb_id
            if key.__closure__ is None:
                ix[key] = cb_id  # plain function: stable fast-path key
            return cb_id
        # No __code__: a functor, builtin, or functools.partial.  Memo
        # by the object itself — retained, but such callbacks are rare
        # and typically long-lived.
        cb_id = self._prov_intern_name(callback_name(callback))
        ix[key] = cb_id
        return cb_id

    def _prov_intern_name(self, name: str) -> int:
        ix = self._prov_name_ix
        cb_id = ix.get(name)
        if cb_id is None:
            cb_id = len(self._prov_names)
            self._prov_names.append(name)
            ix[name] = cb_id
        return cb_id

    @property
    def provenance_enabled(self) -> bool:
        return self._prov_enabled

    @property
    def current_event_id(self) -> Optional[Tuple[int, int]]:
        """``(run, seq)`` of the event whose callback is running, or
        None (between events, or with provenance off)."""
        if not self._prov_enabled or self._dispatch_seq < 0:
            return None
        return (self._prov_run, self._dispatch_seq)

    def event_info(self, seq: int) -> Optional[Dict[str, Any]]:
        """Provenance record for one event id: ``{"run", "seq", "t",
        "callback", "parent"}`` (parent None at a DAG root)."""
        index = seq - self._prov_base
        if (not self._prov_enabled or index < 0
                or index >= len(self._prov_parent)):
            return None
        parent = self._prov_parent[index]
        return {
            "run": self._prov_run,
            "seq": seq,
            "t": round(self._prov_time[index], 9),
            "callback": self._prov_names[self._prov_cb_id[index]],
            "parent": parent if parent >= self._prov_base else None,
        }

    def ancestry(self, seq: Optional[int] = None,
                 max_depth: int = 48) -> List[Dict[str, Any]]:
        """The causal chain ending at ``seq`` (default: the currently
        dispatching event), newest first, at most ``max_depth`` entries.
        Empty when provenance is off or the id is unknown."""
        if seq is None:
            if self._dispatch_seq < 0:
                return []
            seq = self._dispatch_seq
        chain: List[Dict[str, Any]] = []
        while seq is not None and len(chain) < max_depth:
            info = self.event_info(seq)
            if info is None:
                break
            chain.append(info)
            seq = info["parent"]
        return chain

    def set_flight_feed(self, feed: Optional[Any]) -> None:
        """Attach (or detach, with None) the flight recorder's event
        ring: a bounded deque receiving each dispatched event's seq,
        resolved lazily through :meth:`event_info`."""
        self._flight = feed
        self._update_instrumented()

    def stop(self) -> None:
        """Stop :meth:`run` after the current callback returns."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None.

        Pops cancelled events off the head of the calendar as it goes;
        :meth:`Event.cancel` already settled the foreground count, so
        discarding one only moves it out of ``_cancelled``.
        """
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if not event.cancelled:
                return time
            heappop(heap)
            self._cancelled -= 1
        return None

    @property
    def pending(self) -> int:
        """Number of live (not-yet-cancelled, not-yet-fired) events."""
        return len(self._heap) - self._cancelled

    @property
    def heap_depth(self) -> int:
        """Calendar population (cancelled-but-undiscarded events
        included) — the profiler's memory-pressure signal."""
        return len(self._heap)
