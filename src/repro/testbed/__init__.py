"""Canned testbeds and experiment runners.

:mod:`repro.testbed.single_switch` rebuilds the paper's Fig. 2 testbed
(one switch, attacker + client + server on data ports, controller on the
management port).  :mod:`repro.testbed.deployment` builds the full
Scotch deployment of Fig. 5 (multi-rack fabric, vSwitch mesh, host
vSwitches, optional middlebox).  :mod:`repro.testbed.experiments` holds
one runner per reproduced figure; the benchmarks print their output.
"""

from repro.testbed.deployment import Deployment, build_deployment
from repro.obs.report import format_table
from repro.testbed.single_switch import SingleSwitchTestbed, build_single_switch

__all__ = [
    "Deployment",
    "SingleSwitchTestbed",
    "build_deployment",
    "build_single_switch",
    "format_table",
]
