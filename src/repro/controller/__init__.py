"""Ryu-like OpenFlow controller framework.

:class:`OpenFlowController` owns the control channels and dispatches
events to registered applications (:class:`BaseApp` subclasses) — the
same programming model as the Ryu controller the paper uses.  The
controller itself is not a throughput bottleneck (the paper: "a single
node multithreaded controller can handle millions of PacketIn/sec";
scaling the controller is explicitly out of scope), so message handling
is charged no CPU cost here; all control-path limits live in the OFA.
"""

from repro.controller.base_app import BaseApp
from repro.controller.controller import DatapathHandle, OpenFlowController
from repro.controller.flow_info_db import FlowInfo, FlowInfoDatabase
from repro.controller.reliability import ReliableSender
from repro.controller.routing import Router
from repro.controller.stats_service import StatsPoller

__all__ = [
    "BaseApp",
    "DatapathHandle",
    "FlowInfo",
    "FlowInfoDatabase",
    "OpenFlowController",
    "ReliableSender",
    "Router",
    "StatsPoller",
]
