"""Tests for the ASCII chart helpers."""

from hypothesis import given, strategies as st

from repro.obs.report import ascii_plot, sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_is_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone_series_monotone_glyphs(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_extremes_hit_extreme_glyphs(self):
        line = sparkline([0, 100])
        assert line[0] == "▁" and line[-1] == "█"

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_length_preserved(self, values):
        assert len(sparkline(values)) == len(values)


class TestAsciiPlot:
    def test_empty(self):
        assert ascii_plot([]) == "(no data)"

    def test_contains_all_points_as_stars(self):
        points = [(0, 0), (1, 1), (2, 4), (3, 9)]
        chart = ascii_plot(points)
        assert chart.count("*") >= 3  # distinct cells (some may collide)

    def test_axis_labels_present(self):
        chart = ascii_plot([(0, 0), (10, 1)], x_label="rate", y_label="loss")
        assert "x: rate" in chart
        assert "y: loss" in chart
        assert "10" in chart  # x max on the axis

    def test_degenerate_single_point(self):
        chart = ascii_plot([(5, 5)])
        assert "*" in chart

    @given(st.lists(
        st.tuples(st.floats(min_value=0, max_value=1e3),
                  st.floats(min_value=0, max_value=1e3)),
        min_size=1, max_size=30))
    def test_never_crashes_and_has_grid(self, points):
        chart = ascii_plot(points)
        assert "|" in chart and "+" in chart
