"""Congestion detection (paper §4.2) and withdrawal detection (§5.5).

"The OpenFlow controller monitors the rate of Packet-In messages sent by
the OFA of each physical switch to determine if the control path is
congested."  While the overlay is active the switch's own OFA goes
quiet (the default rule swallows table misses), so the monitor instead
counts the new-flow arrivals attributed to the switch via the overlay's
tunnel metadata — which is also what §5.5 prescribes for detecting that
the congestion has passed ("monitoring the new flow arrival rate at
physical switches").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.core.config import (
    ACTIVATE_FRACTION,
    MONITOR_INTERVAL,
    TABLE_FULL_RATE_THRESHOLD,
    WITHDRAW_FRACTION,
    WITHDRAW_HOLD,
)
from repro.sim.process import PeriodicTimer
from repro.sim.ratelimit import RateEstimator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.switch.profiles import SwitchProfile


class _SwitchState:
    def __init__(self, profile: "SwitchProfile"):
        self.profile = profile
        self.meter = RateEstimator(window_events=64, window_seconds=2.0)
        self.table_full_meter = RateEstimator(window_events=32, window_seconds=2.0)
        self.congested = False
        self.below_since: Optional[float] = None


class CongestionMonitor:
    """Per-switch new-flow rate tracking with activation/withdrawal events."""

    def __init__(
        self,
        sim: "Simulator",
        on_congested: Callable[[str], None],
        on_cleared: Callable[[str], None],
        pressure_check: Optional[Callable[[str], bool]] = None,
    ):
        self.sim = sim
        self.on_congested = on_congested
        self.on_cleared = on_cleared
        #: Extra veto on withdrawal: while this returns True for a
        #: switch, it is never declared calm (used for predicted TCAM
        #: pressure, which is invisible in the rates while mitigated).
        self.pressure_check = pressure_check
        self._switches: Dict[str, _SwitchState] = {}
        #: Restart-safe tick chain (sim.process.PeriodicTimer owns the
        #: pending event, so stop()/start() can never double the chain).
        self._timer = PeriodicTimer(sim, MONITOR_INTERVAL, self._tick)
        self._obs = sim.obs

    def watch(self, dpid: str, profile: "SwitchProfile") -> None:
        if dpid not in self._switches:
            self._switches[dpid] = _SwitchState(profile)
            self._obs.metrics.gauge(
                f"monitor.{dpid}.new_flow_rate", fn=lambda d=dpid: self.rate(d)
            )
            self._obs.metrics.gauge(
                f"monitor.{dpid}.congested",
                fn=lambda d=dpid: float(self.is_congested(d)),
            )

    def observe_new_flow(self, dpid: str) -> None:
        """Record a new-flow arrival attributed to ``dpid`` (a direct
        Packet-In or an overlay Packet-In carrying its tunnel id)."""
        state = self._switches.get(dpid)
        if state is not None:
            state.meter.observe(self.sim.now)

    def observe_table_full(self, dpid: str) -> None:
        """Record a TABLE_FULL error from ``dpid`` — the §3.3 TCAM
        bottleneck also warrants detouring new flows to the overlay."""
        state = self._switches.get(dpid)
        if state is not None:
            state.table_full_meter.observe(self.sim.now)

    def table_full_rate(self, dpid: str) -> float:
        state = self._switches.get(dpid)
        return state.table_full_meter.rate(self.sim.now) if state else 0.0

    def rate(self, dpid: str) -> float:
        state = self._switches.get(dpid)
        return state.meter.rate(self.sim.now) if state else 0.0

    def is_congested(self, dpid: str) -> bool:
        state = self._switches.get(dpid)
        return bool(state and state.congested)

    def force_congested(self, dpid: str) -> None:
        """Declare congestion out-of-band (e.g. predicted TCAM
        exhaustion) — fires ``on_congested`` once; the ordinary calm
        conditions later clear it."""
        state = self._switches.get(dpid)
        if state is not None and not state.congested:
            state.congested = True
            state.below_since = None
            self._instant("overlay.activate", dpid, reason="forced")
            self.on_congested(dpid)

    def _instant(self, name: str, dpid: str, **args) -> None:
        tracer = self._obs.tracer
        if tracer.enabled:
            tracer.instant(name, track="monitor", switch=dpid,
                           rate=self.rate(dpid), **args)

    # ------------------------------------------------------------------
    # Periodic evaluation
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()

    def _tick(self) -> None:
        if not self._timer.running:
            return
        for dpid, state in self._switches.items():
            rate = state.meter.rate(self.sim.now)
            table_full = state.table_full_meter.rate(self.sim.now)
            capacity = state.profile.packet_in_rate
            if not state.congested:
                if (
                    rate >= ACTIVATE_FRACTION * capacity
                    or table_full >= TABLE_FULL_RATE_THRESHOLD
                ):
                    state.congested = True
                    state.below_since = None
                    self._instant("overlay.activate", dpid,
                                  table_full_rate=table_full)
                    self.on_congested(dpid)
            else:
                calm = (
                    rate <= WITHDRAW_FRACTION * capacity
                    and table_full < TABLE_FULL_RATE_THRESHOLD / 2
                    and not (self.pressure_check is not None and self.pressure_check(dpid))
                )
                if calm:
                    if state.below_since is None:
                        state.below_since = self.sim.now
                    elif self.sim.now - state.below_since >= WITHDRAW_HOLD:
                        state.congested = False
                        state.below_since = None
                        self._instant("overlay.withdraw", dpid)
                        self.on_cleared(dpid)
                else:
                    state.below_since = None
        self._timer.rearm()
