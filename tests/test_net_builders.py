"""Tests for the leaf-spine topology builder, including Scotch on it."""

import pytest

from repro.core.overlay import ScotchOverlay
from repro.net.builders import leaf_spine
from repro.net.tap import client_flow_failure_fraction
from repro.switch.switch import VSwitch
from repro.testbed.deployment import attach_scotch
from repro.traffic import NewFlowSource, SpoofedFlood


class TestLeafSpine:
    def test_shape(self):
        topo = leaf_spine(leaves=4, spines=2, hosts_per_leaf=2)
        assert len(topo.layers["leaf"]) == 4
        assert len(topo.layers["spine"]) == 2
        assert len(topo.hosts) == 8
        # Full bipartite leaf<->spine connectivity.
        for leaf in topo.layers["leaf"]:
            for spine in topo.layers["spine"]:
                assert topo.network.graph.has_edge(leaf, spine)

    def test_two_hop_cross_rack_paths(self):
        topo = leaf_spine(leaves=3, spines=2)
        path = topo.network.shortest_path("leaf0", "leaf2")
        assert len(path) == 3  # leaf - spine - leaf

    def test_validation(self):
        with pytest.raises(ValueError):
            leaf_spine(leaves=0)


def test_scotch_on_builder_leaf_spine():
    """The overlay machinery composes with a builder topology: protect a
    leaf-spine fabric end to end."""
    topo = leaf_spine(leaves=3, spines=2, hosts_per_leaf=1, seed=9)
    sim, net = topo.sim, topo.network
    # Two mesh vSwitches on different leaves.
    overlay = ScotchOverlay(net)
    for index in range(2):
        net.add(VSwitch(sim, f"mv{index}"))
        net.link(f"mv{index}", f"leaf{index}", 1e9)
        overlay.add_mesh_vswitch(f"mv{index}")
    for host in topo.hosts:
        overlay.set_host_delivery(host.name, None, "mv0")
    app = attach_scotch(net, overlay, topo.switches).scotch

    victim_ip = topo.hosts[-1].ip  # host on leaf2
    attacker, client = topo.hosts[0], topo.hosts[1]
    SpoofedFlood(sim, attacker, victim_ip, rate_fps=2000.0).start(at=1.0, stop_at=12.0)
    source = NewFlowSource(sim, client, victim_ip, rate_fps=60.0)
    source.start(at=0.5, stop_at=12.0)
    sim.run(until=14.0)

    assert app.activations >= 1
    failure = client_flow_failure_fraction(
        client.sent_tap, topo.hosts[-1].recv_tap, start=4.0, end=11.0
    )
    assert failure < 0.05
