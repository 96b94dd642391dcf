"""Switch node types.

:class:`OpenFlowSwitch` composes a :class:`~repro.switch.datapath.Datapath`
(hardware) with an :class:`~repro.switch.ofa.OpenFlowAgent` (weak control
CPU) behind a :class:`~repro.openflow.channel.ControlChannel`.

:class:`PhysicalSwitch` and :class:`VSwitch` differ only in their default
profile and in deployment-level roles (Scotch pools vSwitches into the
overlay mesh; physical switches carry the underlay).

Static configuration (the offline tunnel setup of paper §5.6) bypasses
the OFA entirely via :meth:`install_static` / :meth:`add_static_group` —
it happens before traffic and is explicitly not part of the measured
reactive load.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.net.node import Node
from repro.openflow.channel import ControlChannel
from repro.sim.process import PeriodicTimer
from repro.switch.actions import Action
from repro.switch.datapath import Datapath
from repro.switch.flow_table import FlowEntry
from repro.switch.group_table import GroupEntry
from repro.switch.match import Match
from repro.switch.ofa import OpenFlowAgent
from repro.switch.profiles import OPEN_VSWITCH, PICA8_PRONTO_3780, SwitchProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator


class OpenFlowSwitch(Node):
    """A complete OpenFlow switch: data plane + OFA + control channel."""

    #: Period of the background expiry sweep that evicts timed-out rules
    #: and emits FlowRemoved for flagged ones.
    EXPIRY_SWEEP_INTERVAL = 1.0

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        profile: SwitchProfile,
        control_latency: Optional[float] = None,
    ):
        super().__init__(sim, name)
        self.profile = profile
        self.alive = True
        self.ofa: Optional[OpenFlowAgent] = None  # set after datapath exists
        self.datapath = Datapath(sim, self)
        #: Links deliver straight into the datapath, which admits
        #: arrivals itself (no delivery event; see switch/datapath.py).
        self.arrive = self.datapath.arrive
        latency = control_latency if control_latency is not None else profile.control_latency
        self.channel = ControlChannel(sim, name, latency)
        self.ofa = OpenFlowAgent(sim, self, self.channel)
        for table in self.datapath.tables:
            table.on_expired = self.ofa.notify_flow_removed
        self._sweep_timer = PeriodicTimer(sim, self.EXPIRY_SWEEP_INTERVAL, self._sweep)
        self._sweep_timer.start()
        # Table-0 (TCAM on hardware) occupancy — the §3.3 bottleneck.
        sim.obs.metrics.gauge(
            f"switch.{name}.table0_entries",
            fn=lambda: len(self.datapath.table(0)),
        )

    def _sweep(self) -> None:
        if self.alive:
            self.expire_rules()
        self._sweep_timer.rearm()

    # ------------------------------------------------------------------
    # Data plane entry
    # ------------------------------------------------------------------
    def receive(self, packet: "Packet", in_port: int) -> None:
        self.datapath.submit(packet, in_port)

    # ------------------------------------------------------------------
    # Offline (static) configuration — no OFA involvement
    # ------------------------------------------------------------------
    def install_static(
        self,
        match: Match,
        priority: int,
        actions: List[Action],
        table_id: int = 0,
        idle_timeout: float = 0.0,
        cookie: Optional[object] = None,
    ) -> FlowEntry:
        entry = FlowEntry(
            match=match,
            priority=priority,
            actions=actions,
            idle_timeout=idle_timeout,
            cookie=cookie,
        )
        self.datapath.table(table_id).insert(entry, now=self.sim.now)
        return entry

    def add_static_group(self, entry: GroupEntry) -> None:
        self.datapath.groups.add(entry)

    # ------------------------------------------------------------------
    # Failure model (paper §5.6)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the switch: stops forwarding and control responses."""
        self.datapath.settle()  # arrivals up to now met a live switch
        self.alive = False
        self.channel.disconnect()

    def recover(self) -> None:
        self.datapath.settle()  # arrivals up to now met a dead switch
        self.alive = True
        self.channel.reconnect()

    def restart(self) -> None:
        """Bring a crashed switch back with its dynamic flow state gone.

        Everything the controller installed reactively (per-flow rules,
        timed rules, cookied rules) is wiped — a restarted process has an
        empty flow table, so those flows re-appear as table misses and
        get re-installed idempotently.  The offline static configuration
        (tunnel label-switching and delivery rules, §5.6) survives, as
        OVSDB-persisted state does across an ovs-vswitchd restart.
        """
        for table in self.datapath.tables:
            table.remove_where(
                lambda e: e.notify_removal
                or e.idle_timeout > 0
                or e.cookie is not None
            )
        self.ofa._stalled_until = 0.0
        self.recover()

    def expire_rules(self) -> None:
        """Sweep timed-out entries from every table (called periodically
        by scenarios that rely on idle timeouts)."""
        for table in self.datapath.tables:
            table.expire(self.sim.now)


class PhysicalSwitch(OpenFlowSwitch):
    """A hardware underlay switch (defaults to the Pica8 Pronto model)."""

    def __init__(self, sim: "Simulator", name: str, profile: SwitchProfile = PICA8_PRONTO_3780, **kwargs):
        super().__init__(sim, name, profile, **kwargs)


class VSwitch(OpenFlowSwitch):
    """A software vSwitch on a hypervisor (defaults to the OVS model)."""

    def __init__(self, sim: "Simulator", name: str, profile: SwitchProfile = OPEN_VSWITCH, **kwargs):
        super().__init__(sim, name, profile, **kwargs)
