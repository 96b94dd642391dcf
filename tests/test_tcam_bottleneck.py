"""The §3.3 claim: Scotch also mitigates the TCAM-capacity bottleneck.

"A limited amount of TCAM at a switch can also cause new flows being
dropped. ... the solution proposed in this paper is applicable to the
TCAM bottleneck scenario as well."

A switch with a tiny flow table saturates at (capacity / rule lifetime)
resident flows.  Single-packet flows slip through vanilla reactive
forwarding via cascaded Packet-Outs, so the scenario uses 10-packet
flows: their later packets need installed rules, which a full TCAM
rejects — vanilla delivers only first packets, while Scotch's TABLE_FULL
trigger detours whole flows onto the overlay, which needs *no per-flow
state* at the physical switches.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.core.baselines import ReactiveForwardingApp
from repro.switch.profiles import PICA8_PRONTO_3780
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource
from repro.traffic.sizes import FixedSize

#: 10 s rule lifetime x 100 f/s offered -> ~1000 resident rules, far over
#: this table capacity.
TINY_TCAM = PICA8_PRONTO_3780.variant(tcam_capacity=200)

FLOW_PACKETS = 10


def run(with_scotch: bool, seed=71, rate=100.0, until=25.0):
    dep = build_deployment(
        seed=seed, racks=2, mesh_per_rack=1,
        switch_profile=TINY_TCAM, add_scotch_app=with_scotch,
    )
    if not with_scotch:
        dep.controller.add_app(ReactiveForwardingApp())
    client = NewFlowSource(
        dep.sim, dep.client, dep.servers[0].ip, rate_fps=rate,
        sizes=FixedSize(size_packets=FLOW_PACKETS, rate_pps=200.0),
    )
    client.start(at=0.5, stop_at=until - 4.0)
    dep.sim.run(until=until)

    # A flow counts as failed unless (nearly) all of its packets arrived.
    recv = dep.servers[0].recv_tap
    measured = failed = 0
    for key, record in dep.client.sent_tap.records.items():
        if record.first_sent_at is None or not 8.0 <= record.first_sent_at < until - 5.0:
            continue
        measured += 1
        arrived = recv.flow(key)
        if arrived is None or arrived.packets_received < FLOW_PACKETS - 1:
            failed += 1
    return dep, (failed / measured if measured else 0.0)


def test_error_message_emitted_on_table_full():
    dep, _ = run(with_scotch=False, until=12.0)
    assert dep.edge.ofa.table_full_failures > 0
    assert dep.controller.errors_received > 0


def test_vanilla_truncates_flows_when_tcam_full():
    _, failure = run(with_scotch=False)
    assert failure > 0.5


def test_scotch_activates_on_table_full_and_protects():
    dep, failure = run(with_scotch=True)
    app = dep.scotch
    assert app.activations >= 1
    assert failure < 0.1


def test_scotch_overlay_needs_no_per_flow_tcam():
    dep, failure = run(with_scotch=True)
    counts = dep.scotch.flow_db.counts()
    # The steady state routes flows over the overlay (no rules at the
    # tiny-TCAM switches), with occasional physical probes as the
    # error-rate estimate decays.
    assert counts.get("overlay", 0) > 5 * counts.get("physical", 1)
    assert failure < 0.1


def test_monitor_table_full_rate_query():
    dep, _ = run(with_scotch=True, until=12.0)
    assert dep.scotch.monitor.table_full_rate("nonexistent") == 0.0
