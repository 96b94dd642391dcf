"""The mode-selectable flow-measurement service (drop-in for StatsPoller).

``SamplingStatsService`` owns whichever measurement machinery the
configured ``stats_mode`` asks for:

* ``poll``   — exactly the paper's §5.3 loop: it creates and starts an
  unchanged :class:`~repro.controller.stats_service.StatsPoller` and
  nothing else, so default-config runs are event-for-event identical to
  the pre-telemetry behaviour (the golden masters enforce this).
* ``sample`` — attaches a :class:`~repro.telemetry.sampler.PacketSampler`
  to every target vSwitch's datapath, folds the exported
  ``SampleReport``s through a :class:`~repro.telemetry.estimator.
  FlowEstimator`, and *synthesizes* ``FlowStatsReply`` messages from the
  updated estimates — dispatched to every controller app through the
  normal ``stats_reply`` hook, so the elephant migrator (and anything
  else consuming stats) works unmodified on estimates.
* ``hybrid`` — sampling plus a slowed-down full poll
  (``STATS_INTERVAL * HYBRID_POLL_MULTIPLIER``) to true-up estimates.
* ``off``    — no measurement at all (the overhead-benchmark baseline).

Synthetic replies carry the overlay cookie, the vSwitch flow table id
and an exact five-tuple match — the exact shape the migrator's §5.3
filters expect — with ``packets``/``bytes`` set to the scaled-up
estimates.  They are generated inside the controller, so they cost no
control-channel bytes (the whole point).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional

from repro.controller.stats_service import StatsPoller
from repro.core.config import (
    FLOW_IDLE_TIMEOUT,
    HYBRID_POLL_MULTIPLIER,
    SAMPLE_EXPORT_INTERVAL,
    STATS_INTERVAL,
    VSWITCH_FLOW_TABLE,
    ScotchConfig,
)
from repro.core.migration import OVERLAY_COOKIE
from repro.openflow.messages import FlowStatsEntry, FlowStatsReply, SampleReport
from repro.sim.process import PeriodicTimer
from repro.switch.match import Match
from repro.telemetry.estimator import FlowEstimator
from repro.telemetry.sampler import PacketSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import OpenFlowController
    from repro.net.topology import Network

class SamplingStatsService:
    """Flow measurement in the controller, in the configured mode."""

    def __init__(
        self,
        controller: "OpenFlowController",
        network: "Network",
        targets: Callable[[], Iterable[str]],
        config: Optional[ScotchConfig] = None,
    ):
        self.controller = controller
        self.network = network
        self.targets = targets
        self.config = config or ScotchConfig()
        self.mode = self.config.stats_mode
        self.sampling = self.mode in ("sample", "hybrid")

        self.poller: Optional[StatsPoller] = None
        if self.mode == "poll":
            self.poller = StatsPoller(
                controller,
                targets,
                interval=STATS_INTERVAL,
                table_id=VSWITCH_FLOW_TABLE,
            )
        elif self.mode == "hybrid":
            self.poller = StatsPoller(
                controller,
                targets,
                interval=STATS_INTERVAL * HYBRID_POLL_MULTIPLIER,
                table_id=VSWITCH_FLOW_TABLE,
            )

        self.estimator = FlowEstimator()
        self.samplers: Dict[str, PacketSampler] = {}
        self.reports_received = 0
        self.estimates_emitted = 0
        metrics = controller.sim.obs.metrics
        self._metrics = metrics
        metrics.counter("telemetry.estimates_emitted", self, "estimates_emitted")
        #: Per-dpid staleness gauges (sample/hybrid only, metrics on only)
        #: — the ``estimate_staleness`` SLI aggregates these; under full
        #: polling none exist and the SLI reads 0.0, keeping the
        #: estimator-starvation alert inert.
        self._staleness_gauges: Dict[str, object] = {}
        self._last_ingest: Dict[str, float] = {}
        # Restart-safe housekeeping tick (sample/hybrid only; the timer
        # owns the pending event so stop()/start() can't double chains).
        self._timer = PeriodicTimer(controller.sim, SAMPLE_EXPORT_INTERVAL, self._tick)
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.poller is not None:
            self.poller.start()
        if self.sampling:
            self._ensure_samplers()
            self._timer.start()

    def stop(self) -> None:
        self._started = False
        if self.poller is not None:
            self.poller.stop()
        self._timer.stop()
        for dpid, sampler in self.samplers.items():
            sampler.stop()
            if dpid in self.network:
                self.network[dpid].datapath.sampler = None

    @property
    def polls_sent(self) -> int:
        return self.poller.polls_sent if self.poller is not None else 0

    # ------------------------------------------------------------------
    # Sampler attachment (dynamic target set, switch restarts)
    # ------------------------------------------------------------------
    def _ensure_samplers(self) -> None:
        current = set()
        now = self.controller.sim.now
        for dpid in self.targets():
            if dpid not in self.network:
                continue
            current.add(dpid)
            sampler = self.samplers.get(dpid)
            if sampler is None:
                sampler = self.samplers[dpid] = PacketSampler(
                    self.controller.sim,
                    self.network[dpid],
                    period=self.config.sampling_period,
                )
                sampler.start()
                self._last_ingest.setdefault(dpid, now)
                if self._metrics.enabled and dpid not in self._staleness_gauges:
                    self._staleness_gauges[dpid] = self._metrics.gauge(
                        f"telemetry.{dpid}.estimate_staleness"
                    )
            # Re-assert the datapath hook every pass: a restarted switch
            # may have rebuilt its datapath, and a departed-then-returned
            # target just gets its sampler back.
            self.network[dpid].datapath.sampler = sampler
        for dpid, sampler in self.samplers.items():
            if dpid not in current:
                sampler.stop()
                if dpid in self.network:
                    self.network[dpid].datapath.sampler = None
            elif not sampler._timer.running:
                sampler.start()

    # ------------------------------------------------------------------
    # Report intake -> synthetic stats replies
    # ------------------------------------------------------------------
    def handle_sample_report(self, dpid: str, report: SampleReport) -> None:
        if not self.sampling:
            return
        now = self.controller.sim.now
        self.reports_received += 1
        self._last_ingest[dpid] = now
        updated = self.estimator.ingest(dpid, report, now)
        if not updated:
            return
        entries = [
            FlowStatsEntry(
                match=Match.for_flow(estimate.key),
                table_id=VSWITCH_FLOW_TABLE,
                packets=estimate.est_packets,
                cookie=OVERLAY_COOKIE,
            )
            for estimate in updated
        ]
        reply = FlowStatsReply(datapath_id=dpid, entries=entries)
        self.estimates_emitted += len(entries)
        # Same app-visible path as a polled reply — but generated inside
        # the controller, so no control-channel bytes are charged.
        for app in self.controller.apps:
            app.stats_reply(dpid, reply)

    # ------------------------------------------------------------------
    # Housekeeping tick (daemon; sample/hybrid only)
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self._timer.running:
            return
        now = self.controller.sim.now
        self._ensure_samplers()
        for dpid, gauge in self._staleness_gauges.items():
            gauge.set(now - self._last_ingest.get(dpid, now))
        self.estimator.prune(now - 2 * FLOW_IDLE_TIMEOUT)
        self._timer.rearm()
