"""Shape tests for the figure runners — short-duration versions of each
reproduced experiment, asserting the qualitative results the paper
reports (who wins, where breaks fall), not absolute numbers.  Where a
test's points are the figure table's ``--quick`` sweep, it reads the
session's one run of that sweep (``quick_figure`` in conftest.py), so
the shapes are asserted on exactly what ``fig KEY --quick`` prints."""

import pytest

pytestmark = pytest.mark.slow

from repro.obs.metrics import mean
from repro.switch.profiles import HP_PROCURVE_6600, OPEN_VSWITCH, PICA8_PRONTO_3780
from repro.testbed import experiments as ex


def fig3_cell(quick_figure, profile, rate):
    """``fig3_point(profile, rate, duration=4.0)``: one cell of the quick
    Fig. 3 table (a row per attack rate, a column per profile)."""
    return quick_figure("3")[rate][ex.FIG3_PROFILES.index(profile)]


class TestFig3:
    def test_low_attack_rate_harmless(self, quick_figure):
        assert fig3_cell(quick_figure, PICA8_PRONTO_3780, 100) < 0.05

    def test_failure_grows_with_attack_rate(self, quick_figure):
        low = fig3_cell(quick_figure, PICA8_PRONTO_3780, 500)
        high = fig3_cell(quick_figure, PICA8_PRONTO_3780, 3800)
        assert high > low > 0.3

    def test_switch_ordering_matches_paper(self, quick_figure):
        """Fig. 3: Pica8 worst, HP better, OVS near zero."""
        rate = 2000
        pica = fig3_cell(quick_figure, PICA8_PRONTO_3780, rate)
        hp = fig3_cell(quick_figure, HP_PROCURVE_6600, rate)
        ovs = fig3_cell(quick_figure, OPEN_VSWITCH, rate)
        assert pica > hp > ovs
        assert ovs < 0.02

    def test_series_shape(self, quick_figure):
        results = quick_figure("3")  # a row of failures per attack rate
        assert list(results) == list(ex.FIG3_ATTACK_RATES)
        assert all(len(row) == len(ex.FIG3_PROFILES) for row in results.values())
        for curve in zip(*results.values()):  # one curve per profile
            assert curve[0] <= curve[-1]


class TestFig4:
    def test_three_rates_identical_below_capacity(self):
        point = ex.fig4_point(150, duration=4.0)
        assert point.packet_in_rate == pytest.approx(150, rel=0.05)
        assert point.rule_insertion_rate == pytest.approx(150, rel=0.05)
        assert point.successful_flow_rate == pytest.approx(150, rel=0.05)

    def test_packet_in_caps_all_three_rates(self):
        """§3.3: the OFA's Packet-In generation is the bottleneck — all
        three observed rates clamp together at its capacity."""
        point = ex.fig4_point(800, duration=4.0)
        cap = PICA8_PRONTO_3780.packet_in_rate
        assert point.packet_in_rate == pytest.approx(cap, rel=0.08)
        assert point.rule_insertion_rate == pytest.approx(point.packet_in_rate, rel=0.05)
        assert point.successful_flow_rate == pytest.approx(point.packet_in_rate, rel=0.08)


class TestFig9:
    def test_lossless_region(self):
        assert ex.fig9_point(150, duration=3.0) == pytest.approx(150, rel=0.05)
        assert ex.fig9_point(200, duration=3.0) == pytest.approx(200, rel=0.05)

    def test_lossy_beyond_200(self):
        successful = ex.fig9_point(600, duration=3.0)
        assert successful < 600 * 0.95

    def test_plateau_near_1000(self):
        successful = ex.fig9_point(4000, duration=4.0)
        assert 850 < successful < 1050

    def test_monotone_nondecreasing(self):
        values = [ex.fig9_point(r, duration=3.0) for r in (200, 800, 2500)]
        assert values == sorted(values)


class TestFig10:
    def test_no_loss_below_knee(self):
        assert ex.fig10_point(1000, 1000, duration=2.0) < 0.02

    def test_cliff_beyond_knee(self):
        assert ex.fig10_point(1500, 1000, duration=2.0) > 0.9

    def test_loss_rises_with_data_rate(self):
        low = ex.fig10_point(1500, 500, duration=2.0)
        high = ex.fig10_point(1500, 2000, duration=2.0)
        assert high > low > 0.85


class TestFig11:
    def test_scotch_protects_both_ports(self, quick_figure):
        result = quick_figure("11")["scotch"]  # fig11_run("scotch", duration=6.0)
        assert result.clean_port_failure < 0.05
        assert result.attacked_port_failure < 0.2

    def test_vanilla_fails_both_ports(self, quick_figure):
        result = quick_figure("11")["vanilla"]  # fig11_run("vanilla", duration=6.0)
        assert result.clean_port_failure > 0.5
        assert result.attacked_port_failure > 0.5


class TestFig12:
    def test_elephant_migrates_losslessly(self):
        result = ex.fig12_run(elephant_packets=2000, elephant_pps=400.0)
        assert result.migrated
        assert result.migration_time < 5.0
        assert result.delivered_packets == result.total_packets
        assert result.overlay_rules_cleaned


class TestFig13:
    def test_capacity_grows_with_mesh_size(self, quick_figure):
        # fig13_point(n, offered_rate=9000.0, duration=3.0), n = 1, 2
        small, large = quick_figure("13")[1], quick_figure("13")[2]
        assert large > small * 1.5


class TestFig14:
    def test_overlay_adds_bounded_stretch(self, quick_figure):
        paths = quick_figure("14")  # fig14_path(overlay, flows=60)
        direct, overlay = mean(paths[False]), mean(paths[True])
        assert overlay > direct
        # Three tunnels instead of one path: small-constant stretch, not
        # an order of magnitude.
        assert overlay / direct < 20


class TestFig15:
    def test_scotch_beats_vanilla_on_trace(self, quick_figure):
        # fig15_run(scheme, duration=10.0)
        scotch, vanilla = quick_figure("15")["scotch"], quick_figure("15")["vanilla"]
        assert scotch.failure_fraction < 0.1
        assert vanilla.failure_fraction > scotch.failure_fraction + 0.2


class TestAblation:
    def test_scotch_wins_the_ablation(self, quick_figure):
        runs = quick_figure("ablation")  # ablation_run(scheme, duration=5.0)
        scotch, vanilla = runs["scotch"], runs["vanilla"]
        drop, dedicated = runs["drop"], runs["dedicated"]
        assert scotch.client_failure < 0.05
        assert vanilla.client_failure > 0.5
        # Scotch's total goodput (legit + flood carried) dominates.
        assert scotch.total_success_rate > dedicated.total_success_rate
        assert scotch.total_success_rate > drop.total_success_rate

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ex.ablation_run("nope", duration=1.0)
        with pytest.raises(ValueError):
            ex.fig11_run("nope", duration=1.0)
        with pytest.raises(ValueError):
            ex.fig15_run("nope", duration=1.0)
