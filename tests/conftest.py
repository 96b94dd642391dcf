"""Shared pytest configuration for the test suite.

Pins Hypothesis to a deterministic profile by default: property tests
run the same example sequence on every machine and in CI
(``derandomize=True``), so a red build is reproducible by running the
same command locally — no flaky shrink sessions.  Set
``HYPOTHESIS_PROFILE=dev`` to explore with fresh random examples
locally (e.g. before merging an engine change).

Also shares seeded, deterministic results across tests — the figure
table's ``--quick`` sweeps (:func:`quick_figure`) and the chaos
gauntlet's reports (:func:`chaos_report`) — so each runs once per
session.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(scope="session")
def quick_figure():
    """``quick_figure(key)`` is ``FIGURES[key].run(quick=True)``, run at
    most once per session.  The runners are seeded and deterministic, so
    the report test, the ``ablation``/``tcam`` commands and the shape
    tests in test_experiments.py can all read one set of ``--quick``
    results instead of each re-running the same sweeps."""
    from repro.testbed.experiments import FIGURES, Figure

    run = Figure.run  # unpatched, whatever cached_quick_figures does later
    cache = {}

    def results(key):
        if key not in cache:
            cache[key] = run(FIGURES[key], quick=True)
        return cache[key]

    return results


@pytest.fixture(scope="session")
def chaos_report():
    """``chaos_report(seed, health=False)`` is ``repro.faults.run("chaos",
    seed=seed, health=health)``, run at most once per session: the soak
    and health-scorecard tests read the same reports.  A test of
    same-seed determinism still makes its own second run."""
    from repro.faults import run

    cache = {}

    def report(seed, health=False):
        if (seed, health) not in cache:
            cache[seed, health] = run("chaos", seed=seed, health=health)
        return cache[seed, health]

    return report


@pytest.fixture
def cached_quick_figures(monkeypatch, quick_figure):
    """Serve ``Figure.run(quick=True)`` from :func:`quick_figure` for the
    duration of one test; full sweeps still run."""
    from repro.testbed.experiments import Figure

    run = Figure.run

    def cached_run(self, quick=False):
        return quick_figure(self.key) if quick else run(self, quick)

    monkeypatch.setattr(Figure, "run", cached_run)
