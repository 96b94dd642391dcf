"""Registry counters read the tallies the model already keeps.

Each registry counter that duplicates a component attribute registers
that attribute (``metrics.counter(name, source, attr)``) instead of
being ``.inc()``-ed beside it: these tests pin that every migrated
counter equals its attribute(s), that sequential simulators under one
:class:`~repro.obs.Observability` still give running totals without the
registry holding the earlier deployment, and that with observability
off the Packet-In path makes no no-op counter call at all.
"""

import inspect
import pathlib
import re

import pytest

from repro.cluster import PoolTraffic, build_pool_deployment, pool_chaos_config
from repro.obs import Observability, observed
from repro.obs import path as obs_path
from repro.obs.base import NullCounter
from repro.obs.flight import FlightRecorder
from repro.sim.engine import Simulator
from repro.switch.switch import OpenFlowSwitch
from repro.testbed.deployment import build_deployment
from repro.traffic import SpoofedFlood

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Registry name -> the component attribute it reads, per component kind.
OFA_COUNTERS = {
    "packet_ins": "packet_ins_sent",
    "packet_in_drops": "packet_ins_dropped",
    "installs": "installs_succeeded",
    "install_failures": "installs_failed",
    "stall_deferred": "stall_deferred",
}
CONTROLLER_COUNTERS = {
    "controller.packet_ins": "packet_ins_received",
    "controller.errors": "errors_received",
    "stats.polls_sent": "stats_polls_sent",
    "stats.replies": "stats_replies_received",
    "stats.reply_entries": "stats_reply_entries",
    "stats.bytes.requests": "stats_bytes_requests",
    "stats.bytes.replies": "stats_bytes_replies",
    "stats.sample_reports": "sample_reports_received",
    "stats.sample_records": "sample_records_received",
    "stats.bytes.samples": "stats_bytes_samples",
}
RELIABLE_COUNTERS = {
    "reliable.retries": "retries",
    "reliable.acked": "acked",
    "reliable.abandoned": "abandoned",
}
POOL_COUNTERS = {
    "pool.packet_ins": "packet_ins_total",
    "pool.orphaned": "orphaned",
    "pool.drained": "drained",
    "pool.handoffs": "handoffs",
}


def _switches(network):
    return [node for _, node in sorted(network.nodes.items())
            if isinstance(node, OpenFlowSwitch)]


def _flooded_deployment(seed=32, until=3.0):
    dep = build_deployment(seed=seed)
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip,
                         rate_fps=2000.0)
    flood.start(at=0.5, stop_at=until)
    dep.sim.run(until=until)
    return dep


def _expected(dep):
    """Registry name -> the sum of the attributes it must read."""
    expected = {}
    for switch in _switches(dep.network):
        for suffix, attr in OFA_COUNTERS.items():
            expected[f"ofa.{switch.name}.{suffix}"] = getattr(switch.ofa, attr)
    for name, attr in CONTROLLER_COUNTERS.items():
        expected[name] = getattr(dep.controller, attr)
    app = dep.scotch
    for name, attr in RELIABLE_COUNTERS.items():
        expected[name] = getattr(app.reliable, attr)
    expected["heartbeat.misses"] = app.heartbeat.misses
    expected["stats.targets_departed"] = app.stats_service.poller.targets_departed
    expected["telemetry.estimates_emitted"] = app.stats_service.estimates_emitted
    return expected


def test_every_migrated_counter_equals_its_attribute():
    obs = Observability(trace=False, metrics=True)
    with observed(obs):
        dep = _flooded_deployment()
    assert dep.scotch.activations >= 1
    counters = obs.metrics.counters
    expected = _expected(dep)
    for name, value in expected.items():
        assert counters[name].value == value, name
    assert counters["controller.packet_ins"].value > 0
    assert counters["stats.polls_sent"].value > 0
    assert counters["stats.bytes.requests"].value > 0


def test_pool_counters_equal_pool_attributes():
    obs = Observability(trace=False, metrics=True)
    with observed(obs):
        dep = build_pool_deployment(seed=3, switches=6,
                                    config=pool_chaos_config(3))
        traffic = PoolTraffic(dep.sim, dep.switches)
        dep.sim.run(until=3.0)
        dep.pool.crash_member("c1")
        traffic.start(at=3.1, stop_at=3.6, rate_fps=600.0)
        dep.sim.run(until=8.0)
    pool = dep.pool
    counters = obs.metrics.counters
    for name, attr in POOL_COUNTERS.items():
        assert counters[name].value == getattr(pool, attr), name
    assert pool.handoffs > 0 and pool.orphaned > 0 and pool.drained > 0
    # Several ReliableSenders (one per member, crashed ones included)
    # add up under one name.
    for name, attr in RELIABLE_COUNTERS.items():
        assert counters[name].value == sum(
            getattr(member.reliable, attr) for member in pool.members.values()
        ), name


def test_sequential_simulators_give_running_totals():
    obs = Observability(trace=False, metrics=True)
    with observed(obs):
        first = _flooded_deployment(seed=32, until=2.0)
        totals = {name: counter.value
                  for name, counter in obs.metrics.counters.items()}
        live = [id(source) for counter in obs.metrics.counters.values()
                for source, _ in counter.sources]
        assert live
        second = build_deployment(seed=33)
        # Binding the second simulator folded the first one's sources.
        for counter in obs.metrics.counters.values():
            assert all(id(source) not in live for source, _ in counter.sources)
            if counter.name in totals:
                assert counter.value == totals[counter.name], counter.name
        flood = SpoofedFlood(second.sim, second.attacker,
                             second.servers[0].ip, rate_fps=2000.0)
        flood.start(at=0.5, stop_at=2.0)
        second.sim.run(until=2.0)
    counters = obs.metrics.counters
    for name, value in _expected(second).items():
        assert counters[name].value == totals[name] + value, name
    assert counters["controller.packet_ins"].value == (
        first.controller.packet_ins_received
        + second.controller.packet_ins_received)


def test_disabled_observability_never_calls_null_counter(monkeypatch):
    dep = build_deployment(seed=32)
    assert not dep.sim.obs.metrics.enabled

    def boom(self, n=1):
        raise AssertionError("NullCounter.inc called with metrics off")

    monkeypatch.setattr(NullCounter, "inc", boom)
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip,
                         rate_fps=2000.0)
    flood.start(at=0.5, stop_at=3.0)
    dep.sim.run(until=3.0)
    assert dep.scotch.activations >= 1
    assert any(switch.ofa.packet_ins_sent for switch in _switches(dep.network))


def test_tracing_off_never_calls_a_path_helper(monkeypatch):
    """With tracing off the Packet-In path guards each ``obs/path.py``
    stage once behind ``tracer.enabled``: no helper is called, on a
    Scotch flood (punts, overlay relays, deferred decisions, OFA queue
    drops) or on a pool deployment."""
    def boom(*args, **kwargs):
        raise AssertionError("obs/path helper called with tracing off")

    for name, value in vars(obs_path).items():
        if inspect.isfunction(value) and value.__module__ == obs_path.__name__:
            monkeypatch.setattr(obs_path, name, boom)

    dep = build_deployment(seed=32)
    assert not dep.sim.obs.tracer.enabled
    flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip,
                         rate_fps=2000.0)
    flood.start(at=0.5, stop_at=3.0)
    dep.sim.run(until=3.0)
    assert dep.scotch.activations >= 1
    assert dep.controller.packet_ins_received > 0
    assert any(switch.ofa.packet_ins_dropped for switch in _switches(dep.network))

    pool_dep = build_pool_deployment(seed=3, switches=6,
                                     config=pool_chaos_config(3))
    PoolTraffic(pool_dep.sim, pool_dep.switches).start(
        at=0.5, stop_at=1.5, rate_fps=600.0)
    pool_dep.sim.run(until=2.0)
    assert pool_dep.controller.packet_ins_received > 0


def test_no_registry_counter_is_incremented_beside_an_attribute():
    pattern = re.compile(r"_m_\w+\.inc\(")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


@pytest.mark.parametrize("metrics", [True, False])
def test_untraced_run_keeps_provenance_off(metrics):
    obs = Observability(trace=False, metrics=metrics)
    sim = Simulator(seed=1, obs=obs)
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.run()
    assert fired == [1]
    assert not sim.provenance_enabled


def test_flight_without_causality_turns_provenance_on():
    sim = Simulator(seed=1, obs=Observability(trace=False, metrics=False))
    flight = FlightRecorder()
    flight.bind(sim)
    assert sim.provenance_enabled
    sim.schedule(1.0, list)
    sim.run()
    (event,) = flight.window()["events"]
    assert event["t"] == 1.0 and event["callback"] != "(unknown)"
