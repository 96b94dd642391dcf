"""Canned testbeds and experiment runners.

:mod:`repro.testbed.single_switch` rebuilds the paper's Fig. 2 testbed
(one switch, attacker + client + server on data ports, controller on the
management port).  :mod:`repro.testbed.deployment` builds full Scotch
deployments over three underlays — Fig. 5's multi-rack fabric, the
scale overlay and a wide-area ring — wired by one ``attach_scotch``.
:mod:`repro.testbed.experiments` holds
one runner per reproduced figure; the benchmarks print their output.
"""

from repro.testbed.deployment import Deployment, build_deployment
from repro.testbed.single_switch import SingleSwitchTestbed, build_single_switch

__all__ = [
    "Deployment",
    "SingleSwitchTestbed",
    "build_deployment",
    "build_single_switch",
]
