"""The claim the benches rely on implicitly: the reproduced quantities
are stable across seeds (small coefficient of variation)."""

from statistics import stdev

import pytest

pytestmark = pytest.mark.slow

from repro.obs.metrics import mean
from repro.switch.profiles import PICA8_PRONTO_3780
from repro.testbed.experiments import fig3_point, fig9_point


def test_fig3_point_stable_across_seeds():
    values = [fig3_point(PICA8_PRONTO_3780, 2000, duration=4.0, seed=seed)
              for seed in (1, 2, 3)]
    assert mean(values) > 0.9
    assert stdev(values) / mean(values) < 0.05


def test_fig9_point_stable_across_seeds():
    values = [fig9_point(800, duration=3.0, seed=seed) for seed in (1, 2, 3)]
    assert 550 < mean(values) < 700
    assert stdev(values) / mean(values) < 0.05
