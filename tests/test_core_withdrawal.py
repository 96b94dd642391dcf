"""Tests for the §5.5 withdrawal sequence."""

import pytest

pytestmark = pytest.mark.slow

import repro.core.withdrawal as withdrawal_module
from repro.core.config import (
    PRIORITY_OVERLAY_PIN,
    PRIORITY_SCOTCH_DEFAULT,
    ScotchConfig,
)
from repro.net.flow import FlowKey, FlowSpec
from repro.net.tap import client_flow_failure_fraction
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource, SpoofedFlood


def run_attack_then_stop(dep, attack_rate=2000.0, stop_at=8.0, until=30.0,
                         client_rate=None, long_flow=False):
    sim = dep.sim
    server_ip = dep.servers[0].ip
    attack = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=attack_rate)
    attack.start(at=0.5, stop_at=stop_at)
    if client_rate:
        client = NewFlowSource(sim, dep.client, server_ip, rate_fps=client_rate)
        client.start(at=0.5, stop_at=until - 2.0)
    key = None
    if long_flow:
        # A continuing flow on the attacked port: still active at
        # withdrawal time, so it must be pinned to the overlay.
        key = FlowKey("10.99.0.50", server_ip, 6, 4444, 80)
        dep.attacker.start_flow(
            FlowSpec(key=key, start_time=2.0, size_packets=20_000, packet_size=500,
                     rate_pps=800.0, batch=10)
        )
    sim.run(until=until)
    return key


def default_rules(dep):
    return [e for e in dep.edge.datapath.table(0).entries()
            if e.priority == PRIORITY_SCOTCH_DEFAULT]


def pin_rules(dep):
    return [e for e in dep.edge.datapath.table(0).entries()
            if e.priority == PRIORITY_OVERLAY_PIN]


@pytest.fixture(scope="module")
def withdrawn():
    """Seed 21: a 2000 f/s flood until 8 s beside an 80 f/s client, run
    to 30 s — long enough for the overlay to withdraw."""
    dep = build_deployment(seed=21)
    run_attack_then_stop(dep, client_rate=80.0)
    return dep


def test_withdrawal_removes_defaults_and_resumes_direct_packet_ins(withdrawn):
    dep = withdrawn
    assert dep.scotch.withdrawal.withdrawals == 1
    assert default_rules(dep) == []
    assert dep.scotch.overlay.active == set()
    # Direct Packet-Ins flow again after withdrawal.
    assert dep.edge.ofa.packet_ins_sent > 0


def test_no_withdrawal_while_attack_continues():
    dep = build_deployment(seed=21)
    run_attack_then_stop(dep, stop_at=18.0, until=19.0)
    assert dep.scotch.withdrawal.withdrawals == 0
    assert "edge" in dep.scotch.overlay.active


def test_dead_flows_are_not_pinned(withdrawn):
    """The flood's single-packet flows are long gone by withdrawal time;
    §5.5 pins only flows currently on the overlay."""
    assert withdrawn.scotch.withdrawal.pins_installed <= 30


def test_active_overlay_flow_gets_pinned_and_survives():
    config = ScotchConfig(overlay_threshold=2,
                          elephant_packet_threshold=10_000_000)  # no migration
    dep = build_deployment(seed=22, config=config)
    key = run_attack_then_stop(dep, long_flow=True, client_rate=80.0)
    assert dep.scotch.withdrawal.withdrawals == 1
    assert dep.scotch.withdrawal.pins_installed >= 1
    # The pin keeps routing the flow to the overlay after the defaults
    # are gone: delivery continues to completion.
    record = dep.servers[0].recv_tap.flow(key)
    assert record.packets_received == 20_000


def test_pin_rules_idle_out(monkeypatch):
    monkeypatch.setattr(withdrawal_module, "PIN_IDLE_TIMEOUT", 2.0)
    config = ScotchConfig(overlay_threshold=2, elephant_packet_threshold=10_000_000)
    dep = build_deployment(seed=22, config=config)
    run_attack_then_stop(dep, long_flow=True, client_rate=80.0, until=40.0)
    dep.edge.expire_rules()
    assert pin_rules(dep) == []


def test_reactivation_after_withdrawal():
    dep = build_deployment(seed=23)
    sim = dep.sim
    server_ip = dep.servers[0].ip
    first = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=2000.0, rng_name="a1")
    second = SpoofedFlood(sim, dep.attacker, server_ip, rate_fps=2000.0, rng_name="a2")
    first.start(at=0.5, stop_at=6.0)
    second.start(at=22.0, stop_at=30.0)
    client = NewFlowSource(sim, dep.client, server_ip, rate_fps=80.0)
    client.start(at=0.5, stop_at=32.0)
    sim.run(until=34.0)
    app = dep.scotch
    assert app.activations == 2
    assert app.withdrawal.withdrawals >= 1
    # Protection held through the second wave too.
    failure = client_flow_failure_fraction(
        dep.client.sent_tap, dep.servers[0].recv_tap, start=24.0, end=30.0
    )
    assert failure < 0.05
