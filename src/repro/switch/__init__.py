"""OpenFlow switch substrate.

The switch model mirrors the split the paper measures: a hardware data
plane (:mod:`repro.switch.datapath` — multi-table match pipeline, group
tables, per-profile forwarding budget) and a weak software control agent
(:mod:`repro.switch.ofa` — rate-limited Packet-In generation and rule
insertion, with the data-path interaction of paper Fig. 10).

Calibrated device models for the three switches the paper measured live
in :mod:`repro.switch.profiles`.
"""

from repro.switch.actions import (
    Drop,
    GotoTable,
    Group,
    Output,
    PopMpls,
    PushMpls,
)
from repro.switch.flow_table import FlowEntry, FlowTable, TableFullError
from repro.switch.group_table import Bucket, GroupEntry, GroupTable
from repro.switch.match import Match
from repro.switch.ofa import OpenFlowAgent
from repro.switch.profiles import (
    HOST_VSWITCH,
    HP_PROCURVE_6600,
    IDEAL_SWITCH,
    OPEN_VSWITCH,
    PICA8_PRONTO_3780,
    SwitchProfile,
)
from repro.switch.switch import OpenFlowSwitch, PhysicalSwitch, VSwitch

__all__ = [
    "Bucket",
    "Drop",
    "FlowEntry",
    "FlowTable",
    "GotoTable",
    "Group",
    "GroupEntry",
    "GroupTable",
    "HOST_VSWITCH",
    "HP_PROCURVE_6600",
    "IDEAL_SWITCH",
    "Match",
    "OPEN_VSWITCH",
    "OpenFlowAgent",
    "OpenFlowSwitch",
    "Output",
    "PICA8_PRONTO_3780",
    "PhysicalSwitch",
    "PopMpls",
    "PushMpls",
    "SwitchProfile",
    "TableFullError",
    "VSwitch",
]
