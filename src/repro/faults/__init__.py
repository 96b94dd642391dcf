"""Deterministic fault injection and self-healing verification.

See docs/robustness.md.  Importing this package has no effect on a
simulation — faults exist only when a :class:`FaultInjector` is built
and started, and an uninjected run is bit-identical to one where this
package was never imported.
"""

from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker, Violation, grace_window
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.scenario import (
    HTML,
    RunReport,
    Scenario,
    chaos_config,
    default_plan,
    format_report,
    run,
    scenarios,
    write_artifacts,
)
from repro.obs.scorecard import (
    Scorecard,
    TruthWindow,
    build_scorecard,
    truth_windows,
)

__all__ = [
    "HTML",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InvariantChecker",
    "RunReport",
    "Scenario",
    "Scorecard",
    "TruthWindow",
    "Violation",
    "build_scorecard",
    "chaos_config",
    "default_plan",
    "format_report",
    "grace_window",
    "run",
    "scenarios",
    "truth_windows",
    "write_artifacts",
]
