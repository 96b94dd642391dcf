"""Per-vSwitch packet sampling (systematic 1-in-N, seeded random phase).

A :class:`PacketSampler` hangs off a switch's :class:`~repro.switch.
datapath.Datapath` (the ``datapath.sampler`` attribute); the pipeline
calls :meth:`observe` once per packet train before the table walk.  The
disabled cost is a single ``is None`` check — no sampler attribute
draws no randomness and schedules no events, which is what keeps
``stats_mode="poll"`` runs bit-identical to the pre-telemetry seed.

Sampling is *systematic count-based* (sFlow's scheme): every
``period``-th packet is sampled, with the initial countdown drawn from
the switch's own seeded RNG substream so co-located samplers are not
phase-locked.  Packet trains (``packet.count > 1``) are handled exactly:
a train of c packets advances the countdown by c and can contribute
multiple samples.

Accumulated per-flow sample counts are flushed to the controller every
``SAMPLE_EXPORT_INTERVAL`` as one :class:`~repro.openflow.messages.SampleReport`
through the normal control channel (so export pays latency, loss and
byte accounting like any other control traffic).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import SAMPLE_EXPORT_INTERVAL
from repro.openflow.messages import SampleRecord, SampleReport
from repro.sim.process import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import FlowKey
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator
    from repro.switch.switch import OpenFlowSwitch


class PacketSampler:
    """Samples 1-in-``period`` packets at one vSwitch and exports
    aggregated :class:`SampleRecord` batches to the controller."""

    def __init__(
        self,
        sim: "Simulator",
        switch: "OpenFlowSwitch",
        period: int,
    ):
        if period < 1:
            raise ValueError("sampling period must be >= 1")
        self.sim = sim
        self.switch = switch
        self.period = period
        # The random initial phase is drawn only here — creating a
        # sampler is the first (and only) RNG use, so disabled runs draw
        # nothing and stay bit-identical.
        self._rng = sim.rng.stream(f"sampler:{switch.name}")
        self._countdown = self._rng.randrange(1, period + 1)
        #: Per-flow [samples, sampled_bytes] accumulated since last flush.
        self._pending: Dict["FlowKey", List[int]] = {}
        self._window_start = sim.now
        self.packets_seen = 0
        self.samples_taken = 0
        self.reports_sent = 0
        # Restart-safe export chain (sim.process.PeriodicTimer owns the
        # pending event, so stop()/start() can never double the chain).
        self._timer = PeriodicTimer(sim, SAMPLE_EXPORT_INTERVAL, self._tick)

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def observe(self, packet: "Packet") -> None:
        """Called by the datapath pipeline for every packet train."""
        count = packet.count
        self.packets_seen += count
        if count < self._countdown:
            self._countdown -= count
            return
        # The train crosses one or more sampling points.
        taken = 1 + (count - self._countdown) // self.period
        self._countdown = self.period - (count - self._countdown) % self.period
        self.samples_taken += taken
        entry = self._pending.get(packet.flow_key)
        if entry is None:
            self._pending[packet.flow_key] = [taken, taken * packet.size]
        else:
            entry[0] += taken
            entry[1] += taken * packet.size

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer.running:
            return
        self._window_start = self.sim.now
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def _tick(self) -> None:
        if not self._timer.running:
            return
        self.flush()
        self._timer.rearm()

    def flush(self) -> Optional[SampleReport]:
        """Export accumulated records to the controller.

        An empty window still exports a (16-byte) empty report — the
        NetFlow-style timer export doubles as the estimator's liveness
        signal, so ``estimate_staleness`` only grows when the vSwitch,
        the channel or the controller is actually in trouble, not when
        a tenant is merely idle."""
        records = [
            SampleRecord(key=key, samples=counts[0], sampled_bytes=counts[1])
            for key, counts in self._pending.items()
        ]
        self._pending.clear()
        report = SampleReport(
            datapath_id=self.switch.name,
            period=self.period,
            records=records,
            window_start=self._window_start,
        )
        self._window_start = self.sim.now
        self.switch.channel.send_to_controller(report)
        self.reports_sent += 1
        return report
