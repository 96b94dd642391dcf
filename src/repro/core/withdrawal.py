"""Overlay withdrawal (paper §5.5).

Three steps, in order, all through the switch's admitted queue so they
stay R-rate-limited and FIFO-ordered:

1. per-flow *pin* rules keep the flows currently on the overlay going to
   the overlay ("the controller inserts rules at the switch to
   continuously forward these flows to the Scotch overlay");
2. the default-to-overlay rules are deleted, so new flows punt to the
   OFA and reach the controller directly again;
3. any residual overlay flow that later grows large is still migrated by
   the ordinary §5.3 machinery (nothing to do here — the migrator keeps
   running).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.controller.flow_info_db import FlowInfoDatabase
from repro.core.config import (
    LB_TABLE,
    MAIN_TABLE,
    PIN_ACTIVITY_WINDOW,
    PIN_IDLE_TIMEOUT,
    PRIORITY_OVERLAY_PIN,
)
from repro.core.flow_manager import InstallScheduler
from repro.core.overlay import ScotchOverlay
from repro.openflow.messages import FlowMod
from repro.switch.actions import GotoTable, PushMpls
from repro.switch.match import Match

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class WithdrawalManager:
    """Runs the §5.5 sequence for one switch at a time."""

    def __init__(
        self,
        sim: "Simulator",
        overlay: ScotchOverlay,
        flow_db: FlowInfoDatabase,
        schedulers: Dict[str, InstallScheduler],
    ):
        self.sim = sim
        self.overlay = overlay
        self.flow_db = flow_db
        self.schedulers = schedulers
        self.withdrawals = 0
        self.pins_installed = 0

    def withdraw(self, switch_name: str) -> None:
        scheduler = self.schedulers.get(switch_name)
        if scheduler is None:
            raise KeyError(f"no scheduler for switch {switch_name!r}")
        self.withdrawals += 1

        # Step 1: pin every flow *currently* riding the overlay via this
        # switch — those with recent flow-stats activity (dead flows'
        # vSwitch rules idle out and stop appearing in stats).  The pin
        # replicates what the shared default rule did for this one flow
        # (push its ingress-port label, go to the LB table) and idles
        # out with the flow.
        now = self.sim.now
        pins: List[FlowMod] = []
        for info in self.flow_db.overlay_flows_via(switch_name):
            seen = info.last_stats_seen if info.last_stats_seen is not None else info.first_seen
            if now - seen > PIN_ACTIVITY_WINDOW:
                continue
            label = self.overlay.port_label(switch_name, info.ingress_port)
            pins.append(FlowMod(
                match=Match.for_flow(info.key),
                priority=PRIORITY_OVERLAY_PIN,
                actions=[PushMpls(label), GotoTable(LB_TABLE)],
                table_id=MAIN_TABLE,
                idle_timeout=PIN_IDLE_TIMEOUT,
            ))
        self.pins_installed += len(pins)

        # Step 2: remove the default rules — enqueued after the pins on
        # the same FIFO admitted queue, so ordering holds.  Overlay
        # routing at the controller stays enabled until the default
        # rules are actually gone (new flows keep arriving over the
        # overlay data path until then).
        *mods, last = pins + self.overlay.withdrawal_messages(switch_name)

        def removal_done() -> None:
            scheduler.set_overlay_enabled(False)
            self.overlay.active.discard(switch_name)

        for mod in mods:
            scheduler.submit_admitted(mod)
        scheduler.submit_admitted(last, on_sent=removal_done)
