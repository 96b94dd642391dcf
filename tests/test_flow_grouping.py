"""Per-ingress-port fair sharing (§5.2 flow grouping).

"In general, we can classify the flows into different groups and enforce
fair sharing of the SDN network across groups."  The reproduction groups
by ingress port, the design Fig. 11 evaluates.
"""

from repro.testbed.deployment import build_deployment
from repro.traffic import NewFlowSource


def test_per_port_grouping_cannot_isolate_same_port_customers():
    """Two traffic sources behind one switch port share that port's one
    queue, so the victim's flows fight the flood for the same service
    share (without Scotch's overlay they would all fail; with it they
    survive via the overlay).  The structural fact: only one ingress
    queue exists for the shared port."""
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
