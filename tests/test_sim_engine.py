"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_run_returns_final_time():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    assert sim.run() == 3.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent_and_safe_after_firing():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    event.cancel()
    event.cancel()


def test_schedule_during_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, fired.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_schedule_at_same_time_during_run_fires():
    sim = Simulator()
    fired = []

    def first():
        sim.schedule(0.0, fired.append, "zero-delay")

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["zero-delay"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    # Remaining events still pending; run resumes.
    sim.run()
    assert fired == ["a", "b"]


def test_peek_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.peek() == 2.0


def test_peek_discard_keeps_foreground_accounting():
    # Regression: peek() used to pop cancelled *foreground* events
    # without decrementing the foreground-pending count, so a later
    # un-horizoned run() believed real work remained and kept firing
    # daemon housekeeping forever.
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    assert sim.peek() is None  # discards the cancelled event

    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 50:  # cap the fallout if the accounting is wrong
            sim.schedule(1.0, tick, daemon=True)

    sim.schedule(1.0, tick, daemon=True)
    sim.run()  # no horizon + only daemon work left -> must stop at once
    assert ticks == []
    assert sim.now == 0.0


def test_cancel_settles_foreground_accounting_without_peek():
    # Regression (companion to the peek() fix above): cancel() itself
    # settles the foreground-pending count at cancel time, so a later
    # un-horizoned run() stops immediately even if nothing ever called
    # peek() to garbage-collect the tombstone.
    sim = Simulator()
    sim.schedule(1.0, lambda: None).cancel()

    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 50:  # cap the fallout if the accounting is wrong
            sim.schedule(1.0, tick, daemon=True)

    sim.schedule(0.5, tick, daemon=True)
    sim.run()  # no horizon + only daemon work left -> must stop at once
    assert ticks == []
    assert sim.now == 0.0
    assert sim.pending == 1  # the daemon tick is still live, just parked


def test_peek_discard_then_new_work_still_runs():
    sim = Simulator()
    sim.schedule(1.0, lambda: None).cancel()
    sim.schedule(2.0, lambda: None).cancel()
    assert sim.peek() is None
    fired = []
    sim.schedule(3.0, fired.append, "x")
    assert sim.peek() == 3.0
    sim.run()
    assert fired == ["x"]
    assert sim.now == 3.0


def test_pending_counts_live_events():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    event.cancel()
    assert sim.pending == 1


def test_not_reentrant():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_callback_args_passed():
    sim = Simulator()
    got = []
    sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "x")
    sim.run()
    assert got == [(1, "x")]


def test_deterministic_replay():
    def run_once():
        sim = Simulator(seed=42)
        trace = []
        rng = sim.rng.stream("t")

        def tick(n):
            trace.append((round(sim.now, 9), n, rng.random()))
            if n < 20:
                sim.schedule(rng.expovariate(10.0), tick, n + 1)

        sim.schedule(0.0, tick, 0)
        sim.run()
        return trace

    assert run_once() == run_once()
