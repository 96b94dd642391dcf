"""Tests for the simulation-time tracer and its exports."""

import json

from repro.obs.artifacts import read_jsonl
from repro.obs.tracer import Tracer, chrome_events
from repro.sim.engine import Simulator


def test_span_records_sim_time():
    sim = Simulator()
    tracer = Tracer()
    tracer.bind(sim)
    span = tracer.begin("work", switch="edge")
    sim.schedule(1.5, tracer.end, span)
    sim.run()
    (record,) = tracer.records()
    assert record["name"] == "work"
    assert record["t0"] == 0.0
    assert record["t1"] == 1.5
    assert record["args"] == {"switch": "edge"}


def test_end_is_idempotent():
    tracer = Tracer()
    span = tracer.begin("x")
    tracer.end(span)
    tracer.end(span, extra=1)  # ignored
    tracer.end(-1)  # unknown id ignored
    (record,) = tracer.records()
    assert "extra" not in record["args"]


def test_annotate_and_elapsed():
    sim = Simulator()
    tracer = Tracer()
    tracer.bind(sim)
    span = tracer.begin("x")
    tracer.annotate(span, note="hello")
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert tracer.elapsed(span) == 2.0
    tracer.end(span)
    assert tracer.elapsed(span) is None
    (record,) = tracer.records()
    assert record["args"]["note"] == "hello"


def test_open_spans_appear_after_completed():
    tracer = Tracer()
    open_span = tracer.begin("open")
    done = tracer.begin("done")
    tracer.end(done)
    names = [r["name"] for r in tracer.records()]
    assert names == ["done", "open"]
    assert tracer.records()[1]["t1"] is None
    assert open_span >= 0


def test_instant():
    tracer = Tracer()
    tracer.instant("tick", track="monitor", switch="edge")
    (record,) = tracer.records()
    assert record["type"] == "instant"
    assert record["t0"] == record["t1"]


def test_jsonl_roundtrip(tmp_path):
    tracer = Tracer()
    tracer.end(tracer.begin("a", switch="s1"))
    tracer.instant("i")
    tracer.begin("open")
    path = str(tmp_path / "t.jsonl")
    assert tracer.export_jsonl(path) == 3
    assert read_jsonl(path) == tracer.records()


def test_chrome_export_is_valid_trace_event_json(tmp_path):
    sim = Simulator()
    tracer = Tracer()
    tracer.bind(sim, run=3)
    span = tracer.begin("stage", track="switch:edge")
    sim.schedule(0.001, tracer.end, span)
    sim.run()
    tracer.instant("mark", track="monitor")
    path = str(tmp_path / "t.chrome.json")
    count = tracer.export_chrome(path)
    with open(path) as handle:
        data = json.load(handle)
    events = data["traceEvents"]
    assert len(events) == count
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert len(complete) == 1 and len(instants) == 1 and len(metadata) == 2
    (x,) = complete
    assert x["pid"] == 3
    assert x["ts"] == 0.0
    assert x["dur"] == 1000.0  # 1 ms in microseconds
    assert instants[0]["s"] == "t"
    # Track names ride on thread metadata events.
    names = {e["args"]["name"] for e in metadata}
    assert names == {"switch:edge", "monitor"}


def test_chrome_events_distinct_tids_per_track():
    records = [
        {"type": "span", "run": 0, "name": "a", "cat": "c", "track": "t1",
         "t0": 0.0, "t1": 1.0, "args": {}},
        {"type": "span", "run": 0, "name": "b", "cat": "c", "track": "t2",
         "t0": 0.0, "t1": 1.0, "args": {}},
    ]
    events = chrome_events(records)
    tids = {e["tid"] for e in events if e["ph"] == "X"}
    assert len(tids) == 2


def test_rebind_advances_run_index():
    tracer = Tracer()
    tracer.bind(Simulator())
    first = tracer.run
    tracer.bind(Simulator())
    assert tracer.run == first + 1
    tracer.bind(Simulator(), run=9)
    assert tracer.run == 9


def test_chrome_export_multi_run_pid_mapping(tmp_path):
    """A figure sweep binds several simulators: each run must land on
    its own Chrome pid, with per-(run, track) thread metadata."""
    tracer = Tracer()
    for run in range(3):
        sim = Simulator()
        tracer.bind(sim, run=run)
        span = tracer.begin("stage", track="switch:edge")
        sim.schedule(0.002, tracer.end, span)
        tracer.instant("mark", track="monitor")
        sim.run()
    path = str(tmp_path / "multi.chrome.json")
    count = tracer.export_chrome(path)
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    assert len(events) == count
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    metadata = [e for e in events if e["ph"] == "M"]
    # One span + one instant per run, each on its own pid.
    assert sorted(e["pid"] for e in complete) == [0, 1, 2]
    assert sorted(e["pid"] for e in instants) == [0, 1, 2]
    # Instants carry the thread scope.
    assert {e["s"] for e in instants} == {"t"}
    # Two tracks per run -> six thread_name metadata events, with tids
    # unique per (pid, track) pair.
    assert len(metadata) == 6
    assert all(e["name"] == "thread_name" for e in metadata)
    pairs = {(e["pid"], e["args"]["name"]): e["tid"] for e in metadata}
    assert len(pairs) == 6
    for event in complete + instants:
        track = "switch:edge" if event["ph"] == "X" else "monitor"
        assert event["tid"] == pairs[(event["pid"], track)]


def test_chrome_events_open_span_gets_zero_duration():
    records = [{"type": "span", "run": 0, "name": "open", "cat": "c",
                "track": "t", "t0": 2.0, "t1": None, "args": {}}]
    (meta, event) = chrome_events(records)
    assert meta["ph"] == "M"
    assert event["dur"] == 0.0 and event["ts"] == 2e6


def test_export_jsonl_writes_schema_header(tmp_path):
    tracer = Tracer()
    tracer.end(tracer.begin("a"))
    path = str(tmp_path / "t.jsonl")
    assert tracer.export_jsonl(path) == 1
    with open(path) as handle:
        lines = handle.read().strip().splitlines()
    assert json.loads(lines[0]) == {"type": "schema", "schema": "trace",
                                    "version": 2}
    assert len(lines) == 2
    # read_jsonl skips the header transparently.
    assert read_jsonl(path) == tracer.records()


def test_causality_stamps_span_ids_and_event_ids():
    sim = Simulator()
    sim.enable_provenance()
    tracer = Tracer()
    tracer.bind(sim)

    def work():
        tracer.end(tracer.begin("stage"))
        tracer.instant("mark")

    sim.schedule(0.5, work)
    sim.run()
    span, instant = tracer.records()
    assert span["id"] == 0 and instant["id"] == 1
    assert span["ev"] == [0, 0] and instant["ev"] == [0, 0]
