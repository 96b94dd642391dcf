"""Property tests for :mod:`repro.sim.ratelimit`.

The contract the whole control-path model depends on —
:class:`RateLimitedServer` conservation: every accepted item is served
exactly once, in FIFO order, at most one completion per ``1/rate``
seconds, and the idle→busy resume on a fresh submit is idempotent (the
service chain restarts exactly once, never losing or double-serving
items, no matter how the submissions are spaced).
"""

from hypothesis import given, strategies as st

from repro.sim.engine import Simulator
from repro.sim.ratelimit import RateLimitedServer

EPS = 1e-6


@st.composite
def submission_times(draw):
    """Arrival times mixing bursts (0-gaps) with idle periods long
    enough to drain the server between batches."""
    gaps = draw(
        st.lists(st.sampled_from([0.0, 0.1, 2.0]), min_size=1, max_size=25)
    )
    times, time = [], 0.0
    for gap in gaps:
        time += gap
        times.append(time)
    return times


@given(
    times=submission_times(),
    rate=st.sampled_from([1.0, 5.0]),
    capacity=st.sampled_from([None, 1, 3]),
)
def test_server_conserves_items_and_serves_fifo(times, rate, capacity):
    sim = Simulator()
    completions = []
    server = RateLimitedServer(
        sim, rate, capacity, lambda item: completions.append((sim.now, item))
    )
    accepted = []

    def feed(item):
        if server.submit(item):
            accepted.append(item)

    for item, time in enumerate(times):
        sim.schedule_at(time, feed, item)
    sim.run()

    # Conservation: accepted == served (exactly once, FIFO), the rest dropped.
    assert [item for _, item in completions] == accepted
    assert server.served == len(accepted)
    assert server.dropped == len(times) - len(accepted)
    assert server.backlog() == 0
    assert not server.busy
    # Rate conformance: one completion per service time, never faster —
    # idle gaps only ever stretch the spacing.
    spacing = [b - a for (a, _), (b, _) in zip(completions, completions[1:])]
    assert all(gap >= server.service_time - EPS for gap in spacing)


@given(
    first=submission_times(),
    second=submission_times(),
    rate=st.sampled_from([1.0, 5.0]),
)
def test_server_idle_resume_is_idempotent(first, second, rate):
    """Stop/start: after the server drains to idle, a fresh batch
    restarts the service chain exactly once — totals and FIFO order are
    as if the batches had been one submission stream."""
    sim = Simulator()
    completions = []
    server = RateLimitedServer(
        sim, rate, None, lambda item: completions.append(item)
    )
    for item, time in enumerate(first):
        sim.schedule_at(time, server.submit, item)
    sim.run()
    assert not server.busy and server.backlog() == 0
    assert completions == list(range(len(first)))

    resume_at = sim.now  # includes a same-instant resume when gap == 0
    for offset, gap in enumerate(second):
        sim.schedule_at(resume_at + gap, server.submit, len(first) + offset)
    sim.run()
    assert not server.busy and server.backlog() == 0
    assert server.served == len(first) + len(second)
    assert completions == list(range(len(first) + len(second)))
