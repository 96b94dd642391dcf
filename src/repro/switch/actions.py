"""OpenFlow actions.

Actions are plain data; :mod:`repro.switch.datapath` interprets them.
The subset implemented is exactly what Scotch's pipelines need: output,
group indirection, MPLS push/pop (tunnel + ingress labels), goto-table,
and drop.  There is no punt action: every Packet-In is a table miss.
"""

from __future__ import annotations

from dataclasses import dataclass


class Action:
    """Marker base class for all actions."""

    __slots__ = ()


@dataclass(frozen=True)
class Output(Action):
    """Forward out a specific port."""

    port_no: int


@dataclass(frozen=True)
class Group(Action):
    """Hand the packet to a group-table entry (load balancing)."""

    group_id: int


@dataclass(frozen=True)
class PushMpls(Action):
    """Push an MPLS shim with the given label (becomes outermost)."""

    label: int


@dataclass(frozen=True)
class PopMpls(Action):
    """Pop the outermost MPLS shim; the label is recorded on the packet
    (``popped_labels``) so the OFA can attach it to Packet-In metadata —
    this is how the inner ingress-port label of paper §5.2 survives."""


@dataclass(frozen=True)
class GotoTable(Action):
    """Continue the pipeline at a later table (OpenFlow 1.1+)."""

    table_id: int


@dataclass(frozen=True)
class Drop(Action):
    """Explicitly discard the packet."""
