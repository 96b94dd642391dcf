"""Causal provenance in the engine, and the flight recorder it feeds.

Contracts:

* Off by default — a plain run records nothing, pays nothing, and
  `current_event_id`/`ancestry` stay empty; tracing turns it on.
* On, every scheduled event knows its parent (the event whose callback
  scheduled it), `ancestry` walks the chain newest-first with a depth
  bound, and ids are compact `(run, seq)` pairs.
* Enabling provenance / the flight recorder must not change model
  results (the read-only contract postmortem bundles depend on).
* The flight recorder's rings are bounded, deterministic, and its
  counter-delta windows advance with `mark`.
"""

import json
from functools import partial

from repro.obs import Observability, observed
from repro.obs import flight as flight_module
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator, callback_name
from repro.testbed.single_switch import SERVER_IP, build_single_switch
from repro.traffic import NewFlowSource


# ----------------------------------------------------------------------
# Engine provenance
# ----------------------------------------------------------------------
def test_provenance_off_by_default():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.current_event_id))
    sim.run()
    assert not sim.provenance_enabled
    assert seen == [None]
    assert sim.ancestry() == []
    assert sim.event_info(0) is None


def test_parent_links_follow_the_scheduling_chain():
    sim = Simulator()
    chain = []

    def tail():
        chain.append(sim.ancestry())

    def middle():
        sim.schedule(1.0, tail)

    sim.enable_provenance(run=7)
    sim.schedule(1.0, middle)
    sim.run()
    (ancestry,) = chain
    # tail -> middle -> (root); newest first.
    assert [a["callback"] for a in ancestry] == [
        "test_parent_links_follow_the_scheduling_chain.<locals>.tail",
        "test_parent_links_follow_the_scheduling_chain.<locals>.middle",
    ]
    assert all(a["run"] == 7 for a in ancestry)
    # Root events (scheduled outside any callback) have no parent.
    assert ancestry[-1]["parent"] is None
    assert ancestry[0]["parent"] == ancestry[-1]["seq"]
    assert ancestry[0]["t"] == 2.0 and ancestry[-1]["t"] == 1.0


def test_current_event_id_is_live_only_during_dispatch():
    sim = Simulator()
    sim.enable_provenance()
    seen = []
    sim.schedule(0.5, lambda: seen.append(sim.current_event_id))
    assert sim.current_event_id is None
    sim.run()
    assert sim.current_event_id is None
    (event_id,) = seen
    assert event_id == (0, 0)
    info = sim.event_info(event_id[1])
    assert info["parent"] is None and info["t"] == 0.5


def test_ancestry_depth_bound():
    sim = Simulator()
    sim.enable_provenance()
    chains = []

    def step(depth):
        if depth:
            sim.schedule(1.0, step, depth - 1)
        else:
            chains.append(sim.ancestry(max_depth=5))

    sim.schedule(1.0, step, 20)
    sim.run()
    (chain,) = chains
    assert len(chain) == 5
    # A truncated chain still links upward: the oldest entry's parent
    # exists even though it was not returned.
    assert chain[-1]["parent"] is not None


def test_events_scheduled_before_enable_are_outside_the_dag():
    sim = Simulator()
    infos = []
    sim.schedule(1.0, lambda: infos.append(sim.ancestry()))
    sim.enable_provenance()
    sim.run()
    # The pre-enable event has no provenance record.
    assert infos == [[]]


def test_callback_name_is_deterministic():
    sim = Simulator()
    assert callback_name(sim.stop) == "Simulator.stop"
    assert callback_name(partial(sim.stop)) == "Simulator.stop"
    assert ".<lambda>" in callback_name(lambda: None)

    class Functor:
        def __call__(self):  # pragma: no cover - never invoked
            pass

    instance = Functor()
    # No __qualname__/func on the instance: fall back to the type name,
    # never repr() (which embeds memory addresses).
    assert callback_name(instance) == "Functor"
    assert "0x" not in callback_name(instance)


def test_provenance_does_not_change_model_results():
    def run(provenance):
        bed = build_single_switch(seed=5)
        if provenance:
            bed.sim.enable_provenance()
        NewFlowSource(bed.sim, bed.client, SERVER_IP, rate_fps=60.0).start(
            at=0.2, stop_at=1.2)
        bed.sim.run(until=2.0)
        return {
            "sent": bed.client.sent_tap.total_packets,
            "received": bed.server.recv_tap.total_packets,
            "pktin": bed.switch.ofa.packet_ins_sent,
            "events": bed.sim.events_fired,
            "now": bed.sim.now,
        }

    assert run(provenance=False) == run(provenance=True)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
def test_flight_ring_is_bounded_and_keeps_the_newest(monkeypatch):
    monkeypatch.setattr(flight_module, "EVENTS", 4)
    sim = Simulator()
    flight = FlightRecorder()
    flight.bind(sim, run=2)
    for index in range(10):
        sim.schedule(float(index + 1), lambda: None)
    sim.run()
    window = flight.window()
    assert len(window["events"]) == 4
    assert [e["t"] for e in window["events"]] == [7.0, 8.0, 9.0, 10.0]
    assert all(e["run"] == 2 for e in window["events"])
    assert all("<lambda>" in e["callback"] for e in window["events"])


def test_flight_counter_deltas_advance_with_mark():
    flight = FlightRecorder()
    registry = MetricsRegistry()
    errors = registry.counter("errors")
    flight.attach_metrics(registry)
    errors.inc(3)
    registry.counter("quiet")  # zero delta: omitted
    first = flight.window()
    assert first["metric_deltas"] == {"errors": 3}
    errors.inc(2)
    assert flight.window()["metric_deltas"] == {"errors": 2}
    assert flight.window()["metric_deltas"] == {}


def test_flight_window_is_json_serializable_and_plain():
    sim = Simulator()
    flight = FlightRecorder()
    flight.bind(sim)
    flight.record_span({"type": "span", "name": "stage", "t0": 0.0, "t1": 1.0})
    sim.schedule(1.0, lambda: None)
    sim.run()
    window = flight.window()
    json.dumps(window)  # no object reprs, no non-serializable leftovers
    assert window["spans"][0]["name"] == "stage"


def test_observability_wires_causality_and_flight():
    """Tracing turns provenance on; a flight recorder bound beside it
    gets the event ring and, through the tracer, the completed spans
    with their span and event ids (the wiring `faults.run` does)."""
    obs = Observability(trace=True, metrics=True)
    with observed(obs):
        sim = Simulator()
        assert sim.provenance_enabled
        flight = FlightRecorder()
        flight.bind(sim)
        flight.attach_metrics(obs.metrics)
        obs.tracer.flight = flight

        def work():
            sim.obs.tracer.end(sim.obs.tracer.begin("work"))

        sim.schedule(0.5, work)
        sim.run()
    assert flight.events.maxlen == flight_module.EVENTS
    assert len(flight.events) == 1
    # The completed span reached the flight ring and carries its id +
    # the (run, seq) id of the event whose callback opened it.
    (record,) = list(flight.spans)
    assert record["id"] == 0
    assert record["ev"] == [0, 0]
