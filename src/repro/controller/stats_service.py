"""Periodic flow-stats polling (paper §5.3).

"The controller sends the flow-stats query messages to the vswitches,
and collects the flow stats including packet counts."  Replies are
dispatched through the normal controller event path, so any app (the
Scotch migrator) sees them via ``stats_reply``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.sim.process import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import OpenFlowController


class StatsPoller:
    """Polls a (dynamic) set of datapaths at a fixed interval."""

    def __init__(
        self,
        controller: "OpenFlowController",
        targets: Callable[[], Iterable[str]],
        interval: float = 1.0,
        table_id: Optional[int] = None,
    ):
        if interval <= 0:
            raise ValueError("poll interval must be positive")
        self.controller = controller
        self.targets = targets
        self.interval = interval
        self.table_id = table_id
        self.polls_sent = 0
        #: Targets skipped because their dpid left ``controller.datapaths``
        #: (e.g. an unregistered/torn-down switch still in the target set).
        self.targets_departed = 0
        controller.sim.obs.metrics.counter(
            "stats.targets_departed", self, "targets_departed")
        # Restart-safe tick chain (sim.process.PeriodicTimer owns the
        # pending event, so stop()/start() can never double the chain).
        self._timer = PeriodicTimer(controller.sim, interval, self._tick)

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def _tick(self) -> None:
        if not self._timer.running:
            return
        for dpid in self.targets():
            if dpid not in self.controller.datapaths:
                # A target that departed the controller's datapath set is
                # skipped — visibly: silently dropping it hid torn-down
                # switches lingering in target callables.
                self.targets_departed += 1
                tracer = self.controller.sim.obs.tracer
                if tracer.enabled:
                    tracer.instant(
                        "stats.target_departed", track="stats", dpid=dpid
                    )
                continue
            self.controller.request_flow_stats(dpid, table_id=self.table_id)
            self.polls_sent += 1
        self._timer.rearm()
