"""Controller application base class (the Ryu app model)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import OpenFlowController
    from repro.openflow.messages import BarrierReply, EchoReply, FlowStatsReply, PacketIn


class BaseApp:
    """Subclass and override the event hooks you care about."""

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.controller: Optional["OpenFlowController"] = None

    def bind(self, controller: "OpenFlowController") -> None:
        self.controller = controller

    @property
    def sim(self):
        return self.controller.sim

    @property
    def network(self):
        return self.controller.network

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Called once when the app is added to a controller."""

    def packet_in(self, dpid: str, message: "PacketIn") -> None:
        """A Packet-In arrived from switch ``dpid``."""

    def stats_reply(self, dpid: str, message: "FlowStatsReply") -> None:
        """A flow-stats dump arrived."""

    def sample_report(self, dpid: str, message) -> None:
        """A packet-sample export arrived (sampled-telemetry mode)."""

    def flow_removed(self, dpid: str, message) -> None:
        """A rule expired at a switch (SEND_FLOW_REM)."""

    def error(self, dpid: str, message) -> None:
        """The switch reported a failed request (e.g. table full)."""

    def echo_reply(self, dpid: str, message: "EchoReply") -> None:
        """A heartbeat response arrived."""

    def barrier_reply(self, dpid: str, message: "BarrierReply") -> None:
        """A barrier completed."""
