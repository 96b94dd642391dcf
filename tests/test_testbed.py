"""Tests for the canned testbeds and the report formatter."""

import pytest

from repro.switch.profiles import HP_PROCURVE_6600
from repro.switch.switch import PhysicalSwitch, VSwitch
from repro.testbed.deployment import build_deployment
from repro.obs.report import format_table
from repro.testbed.single_switch import SERVER_IP, build_single_switch


class TestSingleSwitch:
    def test_default_layout(self):
        bed = build_single_switch()
        assert bed.switch.name == "sw1"
        assert bed.server.ip == SERVER_IP
        assert bed.client.name == "client0"
        # attacker, client, server all on data ports.
        assert len(bed.switch.ports) == 3

    def test_profile_applied(self):
        bed = build_single_switch(profile=HP_PROCURVE_6600)
        assert bed.switch.profile is HP_PROCURVE_6600

    def test_runs_reactive_forwarding(self):
        from repro.core.baselines import ReactiveForwardingApp

        bed = build_single_switch()
        assert [type(a) for a in bed.controller.apps] == [ReactiveForwardingApp]


class TestDeployment:
    def test_default_inventory(self):
        dep = build_deployment(seed=1, racks=2, servers_per_rack=2, mesh_per_rack=1)
        assert [s.name for s in dep.switches] == ["edge", "spine", "tor0", "tor1"]
        assert dep.edge is dep.switches[0]
        assert len(dep.servers) == 4
        assert len(dep.host_vswitches) == 2
        assert len(dep.mesh_vswitches) == 2
        assert dep.scotch is not None
        # All physical switches registered with the overlay.
        assert set(dep.overlay.assignment) == {"edge", "spine", "tor0", "tor1"}

    def test_all_switches_registered_with_controller(self):
        dep = build_deployment(seed=1)
        for name, node in dep.network.nodes.items():
            if isinstance(node, (PhysicalSwitch, VSwitch)):
                assert name in dep.controller.datapaths

    def test_backups_in_overlay_not_in_assignment(self):
        dep = build_deployment(seed=1, backups=2)
        assert len(dep.overlay.backups) == 2
        for serving in dep.overlay.assignment.values():
            assert not set(serving) & set(dep.overlay.backups)

    def test_host_delivery_configured_for_every_server(self):
        dep = build_deployment(seed=1, racks=2, servers_per_rack=2)
        for server in dep.servers:
            assert server.name in dep.overlay.local_mesh_of
            assert server.name in dep.overlay.host_vswitch_of

    def test_firewall_wiring(self):
        dep = build_deployment(seed=1, with_firewall=True)
        assert dep.firewall is not None
        assert "fw0" in dep.policy.attachments
        key_chain = dep.policy.chain_for(
            __import__("repro.net.flow", fromlist=["FlowKey"]).FlowKey(
                "1.1.1.1", dep.servers[0].ip, 6, 1, 80
            )
        )
        assert key_chain == ["fw0"]

    def test_no_scotch_app_option(self):
        dep = build_deployment(seed=1, add_scotch_app=False)
        assert dep.scotch is None
        assert dep.controller.apps == []

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            build_deployment(racks=0)

    def test_deterministic_construction(self):
        a = build_deployment(seed=7)
        b = build_deployment(seed=7)
        assert sorted(a.network.nodes) == sorted(b.network.nodes)
        assert a.overlay.assignment == b.overlay.assignment


class TestReport:
    def test_alignment_and_title(self):
        table = format_table(
            ["name", "value"],
            [["a", 1.5], ["long-name", 20000.0]],
            title="T",
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert "long-name" in lines[-1]
        # All data rows at least as wide as the header separator.
        assert len(lines[-1]) >= len(lines[2].rstrip())

    def test_float_formatting(self):
        table = format_table(["x"], [[0.12345], [12345.6], [3.14159], [0.0]])
        assert "0.1235" in table     # small floats get 4 decimals
        assert "12346" in table      # large floats rounded to integers
        assert "3.14" in table
