"""Tests for pluggable fair-sharing groups (§5.2 flow grouping).

"In general, we can classify the flows into different groups and enforce
fair sharing of the SDN network across groups. For example, we can group
the flows according to which customer it belongs to."
"""

from repro.core.app import ScotchApp
from repro.core.policy import PolicyRegistry
from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource


def customer_of(pending) -> str:
    """Group flows by the /16 'customer' prefix of their source."""
    parts = pending.key.src_ip.split(".")
    return f"{parts[0]}.{parts[1]}"


def build_grouped_deployment(seed=51):
    """A deployment whose Scotch app groups by customer instead of port."""
    dep = build_deployment(seed=seed, racks=2, mesh_per_rack=1, add_scotch_app=False)
    app = ScotchApp(
        dep.overlay,
        config=dep.overlay.config,
        policy=PolicyRegistry(dep.network, dep.overlay),
        group_key=customer_of,
    )
    dep.controller.add_app(app)
    return dep, app


def test_default_grouping_is_per_port():
    dep = build_deployment(seed=50)
    scheduler = dep.scotch.schedulers["edge"]
    from repro.core.flow_manager import PendingFlow
    from repro.net.flow import FlowKey

    pending = PendingFlow(
        key=FlowKey("10.1.2.3", "10.0.0.10", 6, 1, 80),
        first_hop="edge", ingress_port=7, packet=None,
    )
    assert scheduler.group_key(pending) == 7


def test_customer_grouping_isolates_victim_on_shared_port():
    """Two customers share the attacker host's switch port.  Customer
    10.66/16 floods; customer 10.21/16 is legitimate.  Per-port queues
    cannot tell them apart, but per-customer queues give the victim its
    own fair share of R."""
    dep, app = build_grouped_deployment()
    sim = dep.sim
    server_ip = dep.servers[0].ip
    # Both customers originate from the *same host/port*.
    flood = NewFlowSource(sim, dep.attacker, server_ip, rate_fps=1500.0,
                          src_net=66, rng_name="cust-flood")
    victim = NewFlowSource(sim, dep.attacker, server_ip, rate_fps=50.0,
                           src_net=21, rng_name="cust-victim")
    flood.start(at=0.5, stop_at=12.0)
    victim.start(at=0.5, stop_at=12.0)
    sim.run(until=14.0)

    arrived = dep.servers[0].recv_tap.received_flow_keys()
    victim_sent = {
        k for k, r in dep.attacker.sent_tap.records.items()
        if r.packets_sent and k.src_ip.startswith("10.21.")
        and 2.0 <= (r.first_sent_at or 0) < 11.0
    }
    victim_failure = sum(1 for k in victim_sent if k not in arrived) / len(victim_sent)
    assert victim_failure < 0.05
    # The scheduler really did build one queue per customer.
    scheduler = app.schedulers["edge"]
    group_keys = set(scheduler.ingress.queues())
    assert "10.66" in group_keys and "10.21" in group_keys


def test_per_port_grouping_cannot_isolate_same_port_customers():
    """Control experiment: with the default per-port grouping the victim
    shares the attacker's single queue, so its flows fight the flood for
    the same service share and (without Scotch's overlay they would all
    fail; with it they survive via the overlay, but many are served
    *later* than under customer grouping).  We assert the structural
    difference: only one ingress queue exists for the shared port."""
    dep = build_deployment(seed=51)
    sim = dep.sim
    server_ip = dep.servers[0].ip
    flood = NewFlowSource(sim, dep.attacker, server_ip, rate_fps=1500.0,
                          src_net=66, rng_name="cust-flood")
    victim = NewFlowSource(sim, dep.attacker, server_ip, rate_fps=50.0,
                           src_net=21, rng_name="cust-victim")
    flood.start(at=0.5, stop_at=10.0)
    victim.start(at=0.5, stop_at=10.0)
    sim.run(until=12.0)
    scheduler = dep.scotch.schedulers["edge"]
    attacked_port = dep.network.port_between("edge", "attacker")
    assert set(scheduler.ingress.queues()) == {attacked_port}
