"""vSwitch failure detection and failover (paper §5.6).

"vSwitch has a built-in heartbeat module that periodically sends the
ECHO_REQUEST message to the OpenFlow controller" — our controller drives
the echo exchange; a vSwitch that misses ``heartbeat_miss_limit``
consecutive replies is declared dead, and every physical switch whose
select group contained a bucket to it gets a GroupMod that swaps in a
backup vSwitch.  Flows that hashed to the dead vSwitch re-appear at the
backup as new flows (table miss -> Packet-In), exactly as the paper
describes.  A recovered vSwitch (echo replies resume) rejoins.

Robustness (docs/robustness.md): group refreshes ride the
controller's reliable-install layer (Barrier-acked with retries) so a
bucket swap survives a lossy or flapping control channel, and when every
candidate vSwitch for a switch is dead the monitor *degrades* — it skips
the refresh and leaves the previous buckets in place rather than pushing
a group with no live targets — instead of crashing the tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set

from repro.core.config import ScotchConfig
from repro.core.overlay import OverlayError, ScotchOverlay
from repro.sim.process import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import OpenFlowController
    from repro.controller.reliability import ReliableSender
    from repro.openflow.messages import EchoReply
    from repro.sim.engine import Simulator


class HeartbeatMonitor:
    """Echo-driven liveness tracking for the overlay's vSwitches."""

    def __init__(
        self,
        sim: "Simulator",
        controller: "OpenFlowController",
        overlay: ScotchOverlay,
        config: ScotchConfig,
        groups_installed: Set[str],
        reliable: "ReliableSender",
    ):
        self.sim = sim
        self.controller = controller
        self.overlay = overlay
        self.config = config
        #: Switches whose Scotch group exists (set by the app at
        #: activation time); only these receive bucket refreshes.
        self.groups_installed = groups_installed
        #: Group refreshes go through the Barrier-acked reliable-install
        #: layer (keyed, so a newer refresh for the same switch
        #: supersedes a still-retrying older one).
        self.reliable = reliable
        self._pending: Dict[str, int] = {}
        self.failures_detected = 0
        self.recoveries_detected = 0
        #: Echo replies outstanding at tick time (one count per target
        #: per tick while unanswered) — the health engine's
        #: ``heartbeat.miss_rate`` SLI reads the matching counter.
        self.misses = 0
        sim.obs.metrics.counter("heartbeat.misses", self, "misses")
        #: Refreshes skipped because no live vSwitch serves the switch
        #: (backups exhausted) — the degraded mode of §5.6 failover.
        self.degraded_refreshes = 0
        #: Restart-safe tick chain (sim.process.PeriodicTimer owns the
        #: pending event, so stop()/start() can never double the chain).
        self._timer = PeriodicTimer(sim, config.heartbeat_interval, self._tick)

    def targets(self):
        return list(self.overlay.mesh) + list(self.overlay.backups)

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        """Stop ticking and forget outstanding miss counts — a restarted
        monitor (e.g. a standby controller taking over) must not declare
        a vSwitch dead from echoes *it* never sent."""
        self._timer.stop()
        self._pending.clear()

    def _tick(self) -> None:
        if not self._timer.running:
            return
        for dpid in self.targets():
            if dpid not in self.controller.datapaths:
                continue
            outstanding = self._pending.get(dpid, 0)
            if outstanding >= 1:
                self.misses += 1
            if outstanding >= self.config.heartbeat_miss_limit and dpid not in self.overlay.dead:
                self._declare_dead(dpid)
            self._pending[dpid] = outstanding + 1
            self.controller.echo(dpid)
        self._timer.rearm()

    def echo_reply(self, dpid: str, message: "EchoReply") -> None:
        self._pending[dpid] = 0
        if dpid in self.overlay.dead:
            self._declare_recovered(dpid)

    # ------------------------------------------------------------------
    def _declare_dead(self, dpid: str) -> None:
        self.failures_detected += 1
        self._instant("failover.dead", dpid)
        affected = self.overlay.mark_dead(dpid)
        self._refresh_groups(affected)

    def _declare_recovered(self, dpid: str) -> None:
        self.recoveries_detected += 1
        self._instant("failover.recovered", dpid)
        self.overlay.mark_alive(dpid)
        affected = [
            s for s, serving in self.overlay.assignment.items() if dpid in serving
        ]
        self._refresh_groups(affected)

    def _refresh_groups(self, switches) -> None:
        for switch_name in switches:
            if switch_name not in self.groups_installed:
                continue
            try:
                group_mod = self.overlay.refresh_group(switch_name)
            except OverlayError:
                # Backups exhausted: nothing alive to point a bucket at.
                # Keep the previous buckets (stale but harmless once
                # nothing answers behind them) and note the degradation;
                # a later recovery refreshes normally.
                self.degraded_refreshes += 1
                self._instant("failover.degraded", switch_name)
                continue
            self.reliable.send(switch_name, [group_mod], key=("group", switch_name))

    def _instant(self, name: str, dpid: str) -> None:
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.instant(name, track="failover", switch=dpid)
