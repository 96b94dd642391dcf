"""Baseline schemes Scotch is compared against.

* :class:`ReactiveForwardingApp` — vanilla reactive forwarding, the
  paper's baseline SDN behaviour: every Packet-In gets its path's rules
  and a Packet-Out at once, so under a flood the OFA bottleneck gives
  exactly the Fig. 3 failure curve.
* :class:`DropPolicingApp` — reactive forwarding with the controller-side
  rate-R install budget and ingress-port fair queueing, but **no
  overlay**: the over-threshold excess is simply dropped.  Isolates the
  value of the queueing discipline from the value of the overlay.
* :class:`DedicatedPortApp` — §4's strawman: when congested, the switch
  deflects table misses out one data-plane port to a collector that
  relays them to the controller.  Packet-Ins no longer die at the OFA,
  but flows still need physical rules installed at rate R, and the
  original ingress port is lost (no per-port fairness) — "using a
  dedicated physical port does not fully solve the problem".

The last two are :class:`~repro.core.flow_manager.RateLimitedReactiveApp`,
the Fig. 7 rate-R core Scotch runs on too: same queues, same R, same
first-hop-last install; only the intake and the fate of the excess
differ.  :class:`ProactiveApp` (§1) never reaches the controller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.controller.base_app import BaseApp
from repro.controller.routing import Router
from repro.core.config import (
    ACTIVATION_RESENDS,
    FLOW_IDLE_TIMEOUT,
    MAIN_TABLE,
    PRIORITY_PHYSICAL_FLOW,
    PRIORITY_SCOTCH_DEFAULT,
    ScotchConfig,
)
from repro.core.flow_manager import PendingFlow, RateLimitedReactiveApp
from repro.core.monitor import CongestionMonitor
from repro.openflow.messages import DELETE, FlowMod
from repro.switch.actions import Output
from repro.switch.match import Match

if TYPE_CHECKING:  # pragma: no cover
    from repro.openflow.messages import PacketIn


class ReactiveForwardingApp(BaseApp):
    """Vanilla reactive L3 forwarding over the physical network: every
    Packet-In triggers path computation to the destination host,
    exact-match FlowMods along the path (make-before-break order) and a
    Packet-Out of the buffered packet at the punting switch.  Every
    FlowMod is subject to the OFA's insertion-loss model."""

    def __init__(self):
        super().__init__()
        self.router: Optional[Router] = None
        self.unroutable = 0

    def start(self) -> None:
        self.router = Router(self.network)

    def packet_in(self, dpid: str, message: "PacketIn") -> None:
        packet = message.packet
        if packet is None:
            return
        path = self.router.path_to(dpid, packet.dst_ip)
        if path is None:
            self.unroutable += 1
            return
        for rule in self.router.rules_for_path(path, packet.flow_key):
            self.controller.flow_mod(
                rule.dpid,
                rule.match,
                PRIORITY_PHYSICAL_FLOW,
                rule.actions,
                idle_timeout=FLOW_IDLE_TIMEOUT,
            )
        # Forward the buffered first packet explicitly.
        out_port = self.network.port_between(path[0], path[1]) if len(path) > 1 else None
        if out_port is not None:
            self.controller.packet_out(dpid, packet, [Output(out_port)], in_port=message.in_port)


class ProactiveApp(BaseApp):
    """§1's other alternative: "the load on the control path can be
    reduced by limiting reactive flows and pre-installing rules for all
    expected traffic.  However, this comes at the expense of fine-grained
    policy control, visibility, and flexibility."

    The operator pre-installs one coarse destination rule per host at
    every switch (offline, like tunnel configuration).  No flow ever
    reaches the controller: floods cannot hurt the control path — and
    the controller is blind (``flows_observed`` stays 0), which is
    exactly the trade-off Scotch avoids.
    """

    def __init__(self, managed_switches):
        super().__init__()
        self.managed_switches = list(managed_switches)
        self.flows_observed = 0
        self.rules_preinstalled = 0

    def start(self) -> None:
        from repro.net.host import Host

        router = Router(self.network)
        hosts = [n for n in self.network.nodes.values() if isinstance(n, Host)]
        for name in self.managed_switches:
            switch = self.network[name]
            for host in hosts:
                path = router.path_to(name, host.ip)
                if path is None or len(path) < 2:
                    continue
                out_port = self.network.port_between(name, path[1])
                switch.install_static(
                    Match(dst_ip=host.ip),
                    priority=PRIORITY_PHYSICAL_FLOW,
                    actions=[Output(out_port)],
                )
                self.rules_preinstalled += 1

    def packet_in(self, dpid: str, message: "PacketIn") -> None:
        self.flows_observed += 1  # should never happen in pure proactive mode


class DropPolicingApp(RateLimitedReactiveApp):
    """Fair queueing + rate-R installs; over-threshold flows are dropped."""

    def __init__(self, managed_switches, config: Optional[ScotchConfig] = None):
        super().__init__(config, managed_switches=managed_switches)
        self.policed_drops = 0

    def start(self) -> None:
        super().start()
        for scheduler in self.schedulers.values():
            # Enable the drain so the overlay threshold acts as a policer.
            scheduler.set_overlay_enabled(True)

    def _handle_excess(self, pending: PendingFlow) -> None:
        self.policed_drops += 1
        self._drop(pending)


class DedicatedPortApp(RateLimitedReactiveApp):
    """§4's dedicated-port deflection baseline.

    ``collectors`` maps each managed physical switch to the collector
    vSwitch wired to its dedicated port.  On congestion the switch's
    table misses are deflected (default rules) out that port; the
    collector punts them to the controller with its own fast agent.
    There is no overlay to absorb the excess, so it is dropped (the
    paper's point: the rule insertion rate R is the hard ceiling).
    """

    def __init__(
        self,
        managed_switches,
        collectors: Dict[str, str],
        config: Optional[ScotchConfig] = None,
    ):
        super().__init__(config, managed_switches=managed_switches)
        self.collectors = dict(collectors)
        self._origin_of_collector = {v: k for k, v in collectors.items()}
        self.monitor: Optional[CongestionMonitor] = None
        self.deflections_active: set = set()

    def start(self) -> None:
        super().start()
        self.monitor = CongestionMonitor(
            self.sim, self._activate_deflection, self._deactivate_deflection
        )
        for name in self.managed_switches:
            self.monitor.watch(name, self.network[name].profile)
        self.monitor.start()

    def attribute(self, dpid: str, message: "PacketIn"):
        origin = self._origin_of_collector.get(dpid)
        if origin is not None:
            # The deflected packet lost its ingress-port context: all
            # flows share one queue (port 0) — no per-port fairness.
            return origin, 0
        return super().attribute(dpid, message)

    def packet_in(self, dpid: str, message: "PacketIn") -> None:
        origin, _ = self.attribute(dpid, message)
        if origin is not None and message.packet is not None:
            self.monitor.observe_new_flow(origin)
        super().packet_in(dpid, message)

    # -- deflection rules ---------------------------------------------------
    def _deflection_mods(self, switch_name: str, command: str):
        switch = self.network[switch_name]
        out_port = self.network.port_between(switch_name, self.collectors[switch_name])
        for port_no in switch.ports:
            yield FlowMod(
                match=Match(in_port=port_no),
                priority=PRIORITY_SCOTCH_DEFAULT,
                actions=[Output(out_port)],
                table_id=MAIN_TABLE,
                command=command,
            )

    def _activate_deflection(self, switch_name: str) -> None:
        self.deflections_active.add(switch_name)
        handle = self.controller.datapaths[switch_name]
        for _ in range(1 + ACTIVATION_RESENDS):
            for mod in self._deflection_mods(switch_name, command="add"):
                handle.send(mod)
        self.schedulers[switch_name].set_overlay_enabled(True)

    def _deactivate_deflection(self, switch_name: str) -> None:
        self.deflections_active.discard(switch_name)
        handle = self.controller.datapaths[switch_name]
        for mod in self._deflection_mods(switch_name, command=DELETE):
            handle.send(mod)
        self.schedulers[switch_name].set_overlay_enabled(False)
