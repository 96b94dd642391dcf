"""Property tests for the event engine against a reference model."""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator


@st.composite
def schedules(draw):
    """A batch of (delay, cancel_flag) operations."""
    n = draw(st.integers(min_value=1, max_value=40))
    delays = [draw(st.floats(min_value=0.0, max_value=100.0)) for _ in range(n)]
    cancels = [draw(st.booleans()) for _ in range(n)]
    return list(zip(delays, cancels))


@given(schedules())
@settings(max_examples=150, deadline=None)
def test_firing_order_matches_stable_sort(operations):
    """Events fire in (time, scheduling order); cancelled ones never fire.

    The reference model is a stable sort of the non-cancelled events by
    time — exactly what the heap + sequence-number tie-break promises.
    """
    sim = Simulator()
    fired = []
    events = []
    for index, (delay, _) in enumerate(operations):
        events.append(sim.schedule(delay, lambda i=index: fired.append(i)))
    for event, (_, cancel) in zip(events, operations):
        if cancel:
            event.cancel()
    sim.run()

    expected = [
        index
        for index, (_, __) in sorted(
            ((i, op) for i, op in enumerate(operations) if not op[1]),
            key=lambda pair: (pair[1][0], pair[0]),
        )
    ]
    assert fired == expected


@given(schedules())
@settings(max_examples=100, deadline=None)
def test_clock_is_monotone_and_matches_last_event(operations):
    sim = Simulator()
    times = []
    for delay, _ in operations:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    if times:
        assert sim.now == times[-1]


@given(schedules())
@settings(max_examples=100, deadline=None)
def test_cancel_settles_accounting_immediately(operations):
    """``pending`` drops the moment an event is cancelled (no deferred
    tombstone sweep), cancelling twice is a no-op, and a full run fires
    exactly the live events and drains every counter."""
    sim = Simulator()
    events = [sim.schedule(delay, lambda: None) for delay, _ in operations]
    live = len(events)
    for event, (_, cancel) in zip(events, operations):
        if cancel:
            event.cancel()
            event.cancel()  # idempotent: settles accounting only once
            live -= 1
        assert sim.pending == live
    # The calendar may still hold the tombstones (GC is lazy)…
    assert sim.heap_depth >= sim.pending
    sim.run()
    # …but a run fires exactly the live events, and peek garbage-collects
    # any trailing tombstones the run had no reason to consume.
    assert sim.events_fired == live
    assert sim.pending == 0
    assert sim.peek() is None
    assert sim.heap_depth == 0


@given(schedules())
@settings(max_examples=100, deadline=None)
def test_cancelled_events_never_hold_peek_or_run(operations):
    """``peek`` skips cancelled heads and ``run`` stops at the last
    *live* event — tombstones are invisible to both."""
    sim = Simulator()
    events = [sim.schedule(delay, lambda: None) for delay, _ in operations]
    live_times = []
    for event, (_, cancel) in zip(events, operations):
        if cancel:
            event.cancel()
        else:
            live_times.append(event.time)
    assert sim.peek() == (min(live_times) if live_times else None)
    assert sim.pending == len(live_times)  # peek's GC never touches accounting
    final = sim.run()
    assert final == (max(live_times) if live_times else 0.0)


@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_same_time_events_fire_first_in_first_out(times):
    """Same-timestamp events fire in scheduling order, and each one is
    its own calendar entry."""
    sim = Simulator()
    fired = []
    for index, time in enumerate(times):
        sim.schedule(time, lambda i=index: fired.append(i))
    assert sim.heap_depth == len(times)
    sim.run()
    assert fired == [i for i, _ in sorted(enumerate(times), key=lambda p: (p[1], p[0]))]
    assert sim.now == max(times)


@given(schedules(), st.lists(st.booleans(), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_run_stops_when_only_daemons_remain(operations, daemon_flags):
    """A horizonless run fires events in order until no live foreground
    work remains; daemon housekeeping past that point never fires."""
    flags = [daemon_flags[i % len(daemon_flags)] for i in range(len(operations))]
    sim = Simulator()
    fired = []
    events = []
    for index, ((delay, _), daemon) in enumerate(zip(operations, flags)):
        events.append(
            sim.schedule(delay, lambda i=index: fired.append(i), daemon=daemon)
        )
    for event, (_, cancel) in zip(events, operations):
        if cancel:
            event.cancel()
    sim.run()

    # Reference model: walk (time, scheduling order); stop as soon as no
    # live foreground event is left ahead; cancelled events are silent.
    order = sorted(range(len(events)), key=lambda i: (events[i].time, i))
    remaining_fg = sum(
        1 for (_, cancel), daemon in zip(operations, flags) if not cancel and not daemon
    )
    expected = []
    for i in order:
        if remaining_fg == 0:
            break
        if operations[i][1]:
            continue
        expected.append(i)
        if not flags[i]:
            remaining_fg -= 1
    assert fired == expected


@given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=20),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=100, deadline=None)
def test_run_until_is_prefix_of_full_run(delays, horizon):
    """Running to a horizon then to completion fires the same sequence
    as one uninterrupted run."""
    def collect(step_at):
        sim = Simulator()
        fired = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, lambda i=index: fired.append(i))
        if step_at is not None:
            sim.run(until=float(step_at))
        sim.run()
        return fired

    assert collect(horizon) == collect(None)


# -- model-based: the engine against a brute-force list ------------------

_offsets = st.integers(0, 8).map(lambda k: k / 4)  # few instants: many ties
#: What a fired callback does: nothing, schedule one more event, or
#: cancel an event by creation index.
_actions = st.one_of(
    st.none(),
    st.tuples(st.just("spawn"), _offsets, st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 60)),
)
_operations = st.lists(st.one_of(
    st.tuples(st.sampled_from(["schedule", "schedule_at"]), _offsets,
              st.booleans(), _actions),
    st.tuples(st.just("cancel"), st.integers(0, 60)),
    st.tuples(st.just("peek")),
    st.tuples(st.just("run_until"), _offsets),
    st.tuples(st.just("run")),
), min_size=1, max_size=50)


class _Model:
    """The engine's contract, stated by brute force: a flat list of
    ``[time, seq, daemon, state, action]`` records, the next one picked
    by ``min`` over ``(time, seq)``.  Cancelled records stay resident
    until a run or peek reaches them at the head."""

    def __init__(self):
        self.now = 0.0
        self.records = []
        self.resident = []
        self.fired = []

    def schedule(self, time, daemon, action):
        record = [time, len(self.records), daemon, "pending", action]
        self.records.append(record)
        self.resident.append(record)

    def cancel(self, index):
        if index < len(self.records) and self.records[index][3] == "pending":
            self.records[index][3] = "cancelled"

    def _head(self):
        return min(self.resident, key=lambda r: (r[0], r[1]))

    def peek(self):
        while self.resident:
            head = self._head()
            if head[3] == "pending":
                return head[0]
            self.resident.remove(head)
        return None

    def run(self, until=None):
        while self.resident:
            if until is None:
                if not any(r[3] == "pending" and not r[2] for r in self.resident):
                    break
            elif self._head()[0] > until:
                break
            head = self._head()
            self.resident.remove(head)
            if head[3] == "cancelled":
                continue
            head[3] = "fired"
            self.now = head[0]
            self.fired.append(head[1])
            action = head[4]
            if action is not None and action[0] == "spawn":
                self.schedule(self.now + action[1], action[2], None)
            elif action is not None:
                self.cancel(action[1])
        if until is not None and self.now < until:
            self.now = until


@given(_operations)
@settings(max_examples=300, deadline=None)
def test_engine_matches_a_brute_force_model(operations):
    """Random schedule/schedule_at calls with daemon flags, cancels
    (twice, after firing, from inside callbacks), peeks, horizoned and
    horizonless runs: fire order is ``(time, seq)``, and ``pending``,
    ``heap_depth``, ``events_fired`` and ``now`` match the model after
    every operation."""
    sim, model = Simulator(), _Model()
    events, fired = [], []

    def cancel(index):
        if index < len(events):
            events[index].cancel()

    def fire(seq, action):
        fired.append(seq)
        if action is not None and action[0] == "spawn":
            events.append(sim.schedule(action[1], fire, len(events), None,
                                       daemon=action[2]))
        elif action is not None:
            cancel(action[1])

    for operation in operations:
        kind = operation[0]
        if kind in ("schedule", "schedule_at"):
            _, offset, daemon, action = operation
            if kind == "schedule":
                events.append(sim.schedule(offset, fire, len(events), action,
                                           daemon=daemon))
            else:
                events.append(sim.schedule_at(sim.now + offset, fire,
                                              len(events), action,
                                              daemon=daemon))
            model.schedule(sim.now + offset, daemon, action)
        elif kind == "cancel":
            cancel(operation[1])
            model.cancel(operation[1])
        elif kind == "peek":
            assert sim.peek() == model.peek()
        elif kind == "run_until":
            until = sim.now + operation[1]
            assert sim.run(until=until) == until
            model.run(until)
        else:
            assert sim.run() == sim.now
            model.run()
        assert fired == model.fired
        assert sim.now == model.now
        assert sim.events_fired == len(model.fired)
        assert sim.pending == sum(r[3] == "pending" for r in model.records)
        assert sim.heap_depth == len(model.resident)
        assert [e.seq for e in events] == list(range(len(events)))
