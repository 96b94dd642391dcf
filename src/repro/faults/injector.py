"""Replays a :class:`~repro.faults.plan.FaultPlan` against a deployment.

The injector is a pure consumer of simulator primitives the control
plane already exposes — ``ControlChannel.disconnect/reconnect`` and
``set_impairments``, ``OpenFlowSwitch.fail/restart``,
``OpenFlowAgent.stall`` — so it never reaches into private state, and a
run with no injector attached executes exactly the same code paths as
one where this module was never imported.

Every action (injection and clearing) is appended to :attr:`log` as a
dict with stable key order; :meth:`log_jsonl` renders it as JSON lines
for byte-for-byte comparison between runs, which is how the chaos soak
asserts determinism.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faults.plan import FaultEvent, FaultPlan
from repro.openflow.channel import LinkImpairments

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import OpenFlowController
    from repro.net.topology import Network
    from repro.sim.engine import Simulator
    from repro.switch.switch import OpenFlowSwitch


class FaultInjector:
    """Schedules the plan's faults as daemon events and records a log."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        controller: Optional["OpenFlowController"] = None,
        plan: Optional[FaultPlan] = None,
        pool=None,
    ):
        self.sim = sim
        self.network = network
        self.controller = controller
        #: The controller pool (docs/cluster.md), when the deployment
        #: runs one — required by the ``pool_*`` fault kinds.
        self.pool = pool
        self.plan = plan if plan is not None else FaultPlan()
        #: Chronological record of every action taken; stable key order.
        self.log: List[Dict[str, object]] = []
        self.injected = 0
        self.counts: Dict[str, int] = {}
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every plan event (relative to the current sim time)."""
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        handlers = {
            "channel_loss": self._inject_channel_loss,
            "channel_flap": self._inject_channel_flap,
            "partition": self._inject_partition,
            "vswitch_crash": self._inject_vswitch_crash,
            "ofa_stall": self._inject_ofa_stall,
            "controller_outage": self._inject_controller_outage,
            "pool_member_crash": self._inject_pool_member_crash,
            "pool_election_loss": self._inject_pool_election_loss,
            "pool_partition": self._inject_pool_partition,
        }
        if self.pool is None and any(e.kind.startswith("pool_") for e in self.plan):
            raise ValueError("plan contains pool faults but no pool was given")
        for event in self.plan:
            delay = max(0.0, event.time - self.sim.now)
            self.sim.schedule(delay, handlers[event.kind], event, daemon=True)

    # ------------------------------------------------------------------
    # Target lookup
    # ------------------------------------------------------------------
    def _switch(self, name: str) -> "OpenFlowSwitch":
        node = self.network.nodes.get(name)
        if node is None or not hasattr(node, "channel"):
            raise KeyError(f"no switch named {name!r} in the network")
        return node

    def _all_channels(self):
        if self.controller is not None:
            return [(dpid, handle.channel)
                    for dpid, handle in sorted(self.controller.datapaths.items())]
        return [(name, node.channel)
                for name, node in sorted(self.network.nodes.items())
                if hasattr(node, "channel")]

    # ------------------------------------------------------------------
    # Handlers (one per fault kind)
    # ------------------------------------------------------------------
    def _inject_channel_loss(self, event: FaultEvent) -> None:
        args = event.args
        switch = self._switch(event.target)
        impair = LinkImpairments(
            loss=float(args.get("loss", 0.0)),
            duplicate=float(args.get("duplicate", 0.0)),
            jitter=float(args.get("jitter", 0.0)),
        )
        direction = args.get("direction", "both")
        to_switch = impair if direction in ("to_switch", "both") else None
        to_controller = impair if direction in ("to_controller", "both") else None
        switch.channel.set_impairments(to_switch=to_switch, to_controller=to_controller)
        self._record(event, "inject", loss=impair.loss, duplicate=impair.duplicate,
                     jitter=impair.jitter, direction=direction)
        if event.duration > 0:
            self.sim.schedule(event.duration, self._clear_channel_loss, event, daemon=True)

    def _clear_channel_loss(self, event: FaultEvent) -> None:
        self._switch(event.target).channel.set_impairments(None, None)
        self._record(event, "clear")

    def _inject_channel_flap(self, event: FaultEvent) -> None:
        args = event.args
        period = float(args["period"])
        flaps = int(args["flaps"])
        self._record(event, "inject", period=period, flaps=flaps)
        for index in range(flaps):
            self.sim.schedule(index * 2 * period, self._flap_down, event, daemon=True)
            self.sim.schedule(index * 2 * period + period, self._flap_up, event, daemon=True)

    def _flap_down(self, event: FaultEvent) -> None:
        self._switch(event.target).channel.disconnect()
        self._record(event, "down")

    def _flap_up(self, event: FaultEvent) -> None:
        switch = self._switch(event.target)
        # A flap restores the TCP session, not a dead switch: stay down
        # if the switch itself crashed in the meantime.
        if switch.alive:
            switch.channel.reconnect()
            self._record(event, "up")

    def _inject_partition(self, event: FaultEvent) -> None:
        targets = list(event.args["targets"])
        for name in targets:
            self._switch(name).channel.disconnect()
        self._record(event, "inject", targets=targets)
        if event.duration > 0:
            self.sim.schedule(event.duration, self._heal_partition, event, daemon=True)

    def _heal_partition(self, event: FaultEvent) -> None:
        for name in event.args["targets"]:
            switch = self._switch(name)
            if switch.alive:
                switch.channel.reconnect()
        self._record(event, "clear")

    def _inject_vswitch_crash(self, event: FaultEvent) -> None:
        self._switch(event.target).fail()
        self._record(event, "inject")
        if event.duration > 0:
            self.sim.schedule(event.duration, self._restart_vswitch, event, daemon=True)

    def _restart_vswitch(self, event: FaultEvent) -> None:
        self._switch(event.target).restart()
        self._record(event, "clear")

    def _inject_ofa_stall(self, event: FaultEvent) -> None:
        self._switch(event.target).ofa.stall(event.duration)
        self._record(event, "inject", duration=event.duration)

    def _inject_controller_outage(self, event: FaultEvent) -> None:
        for _dpid, channel in self._all_channels():
            channel.disconnect()
        self._record(event, "inject")
        if event.duration > 0:
            self.sim.schedule(event.duration, self._end_controller_outage, event, daemon=True)

    def _end_controller_outage(self, event: FaultEvent) -> None:
        # Standby takeover: re-establish sessions to every switch that is
        # still running, then let apps resynchronise their switch state.
        for dpid, channel in self._all_channels():
            node = self.network.nodes.get(dpid)
            if node is None or getattr(node, "alive", True):
                channel.reconnect()
        if self.controller is not None:
            for app in self.controller.apps:
                resync = getattr(app, "resync", None)
                if callable(resync):
                    resync()
        self._record(event, "clear")

    # -- pool faults (docs/cluster.md) ---------------------------------
    def _inject_pool_member_crash(self, event: FaultEvent) -> None:
        self.pool.crash_member(event.target)
        self._record(event, "inject")
        if event.duration > 0:
            self.sim.schedule(event.duration, self._restore_pool_member,
                              event, daemon=True)

    def _restore_pool_member(self, event: FaultEvent) -> None:
        self.pool.restore_member(event.target)
        self._record(event, "clear")

    def _inject_pool_election_loss(self, event: FaultEvent) -> None:
        loss = float(event.args["loss"])
        self.pool.bus.loss = loss
        self._record(event, "inject", loss=loss)
        self.sim.schedule(event.duration, self._clear_pool_election_loss,
                          event, daemon=True)

    def _clear_pool_election_loss(self, event: FaultEvent) -> None:
        self.pool.bus.loss = 0.0
        self._record(event, "clear")

    def _inject_pool_partition(self, event: FaultEvent) -> None:
        groups = [list(g) for g in event.args["groups"]]
        self.pool.bus.set_partition(groups)
        self._record(event, "inject", groups=groups)
        self.sim.schedule(event.duration, self._heal_pool_partition,
                          event, daemon=True)

    def _heal_pool_partition(self, event: FaultEvent) -> None:
        self.pool.bus.heal_partition()
        self._record(event, "clear")

    # ------------------------------------------------------------------
    # Record keeping
    # ------------------------------------------------------------------
    def _record(self, event: FaultEvent, phase: str, **detail: object) -> None:
        entry: Dict[str, object] = {
            "t": round(self.sim.now, 9),
            "kind": event.kind,
            "target": event.target,
            "phase": phase,
        }
        for key in sorted(detail):
            entry[key] = detail[key]
        self.log.append(entry)
        if phase == "inject":
            self.injected += 1
            self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
            metrics = self.sim.obs.metrics
            if metrics.enabled:
                metrics.counter(f"faults.{event.kind}").inc()
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.instant(f"fault.{event.kind}", track="faults",
                           target=event.target, phase=phase)

    def log_jsonl(self) -> str:
        """The fault log as JSON lines — byte-identical for equal seeds.

        Deliberately headerless: this string is the determinism
        comparison unit (chaos soak, golden masters).  File exports get
        the schema header via
        :func:`repro.faults.scenario.write_artifacts`.
        """
        return "\n".join(json.dumps(entry, sort_keys=False) for entry in self.log)
