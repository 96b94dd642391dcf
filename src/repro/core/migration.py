"""Large-flow migration out of the overlay (paper §5.3).

The controller polls the vSwitches' flow stats, identifies flows with
high packet counts, verifies the control planes along the candidate
physical path are not overloaded, and installs the path through the
migration queues — first-hop rule strictly last, so packets only switch
paths once the whole path is ready.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set

from repro.controller.flow_info_db import ROUTE_OVERLAY, ROUTE_PHYSICAL, FlowInfoDatabase
from repro.core.config import (
    MIGRATION_BACKLOG_LIMIT,
    STATS_INTERVAL,
    VSWITCH_FLOW_TABLE,
    ScotchConfig,
)
from repro.core.flow_manager import InstallScheduler, MigrationRequest, PathInstaller
from repro.net.flow import FlowKey
from repro.openflow.messages import DELETE, FlowMod, FlowStatsReply

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import OpenFlowController
    from repro.controller.routing import Router
    from repro.core.policy import PolicyRegistry
    from repro.sim.engine import Simulator

#: Cookie stamped on per-flow overlay rules so stats replies are
#: attributable (and deletable) per flow.
OVERLAY_COOKIE = "scotch-overlay"


class ElephantMigrator:
    """Consumes vSwitch flow stats; migrates elephants to physical paths."""

    def __init__(
        self,
        sim: "Simulator",
        controller: "OpenFlowController",
        router: "Router",
        policy: "PolicyRegistry",
        flow_db: FlowInfoDatabase,
        schedulers: Dict[str, InstallScheduler],
        installer: PathInstaller,
        config: ScotchConfig,
    ):
        self.sim = sim
        self.controller = controller
        self.router = router
        self.policy = policy
        self.flow_db = flow_db
        self.schedulers = schedulers
        self.installer = installer
        self.config = config
        self._migrating: Set[FlowKey] = set()
        self.migrations_started = 0
        self.migrations_completed = 0
        self.migrations_deferred = 0
        #: When each flow first crossed the elephant threshold in a stats
        #: dump (sim time) — pure bookkeeping, read by the telemetry
        #: accuracy scorecard to score detection recall/latency under
        #: polling vs. sampling.
        self.elephants_flagged: Dict[FlowKey, float] = {}

    # ------------------------------------------------------------------
    # Stats intake
    # ------------------------------------------------------------------
    def handle_stats(self, dpid: str, reply: FlowStatsReply) -> None:
        for entry in reply.entries:
            if entry.cookie != OVERLAY_COOKIE:
                continue
            if entry.table_id != VSWITCH_FLOW_TABLE:
                continue
            if not entry.match.is_exact_five_tuple:
                continue
            key = FlowKey(*entry.match.five_tuple_key())
            info = self.flow_db.get(key)
            if info is not None and entry.packets > info.last_stats_packets:
                info.last_stats_packets = entry.packets
                info.last_stats_seen = self.sim.now
            if entry.packets < self.config.elephant_packet_threshold:
                continue
            if key not in self.elephants_flagged:
                self.elephants_flagged[key] = self.sim.now
            self.maybe_migrate(key)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def maybe_migrate(self, key: FlowKey) -> bool:
        """Queue a migration request for ``key`` at its first-hop
        switch's migration queue (Fig. 7 middle band)."""
        info = self.flow_db.get(key)
        if info is None or info.route != ROUTE_OVERLAY or key in self._migrating:
            return False
        if self.router.host_for(key.dst_ip) is None:
            return False
        scheduler = self.schedulers.get(info.first_hop_switch)
        if scheduler is None:
            return False
        self._migrating.add(key)
        self.migrations_started += 1
        scheduler.submit_migration(MigrationRequest(run=lambda: self._serve_request(key)))
        return True

    def _serve_request(self, key: FlowKey) -> None:
        """The request reached its service slot: compute the path, check
        the path's control planes, and push the rules into the admitted
        queues (first-hop rule last)."""
        info = self.flow_db.get(key)
        if info is None or info.route != ROUTE_OVERLAY:
            self._migrating.discard(key)
            return
        host = self.router.host_for(key.dst_ip)
        if host is None:
            self._migrating.discard(key)
            return
        path = self.policy.physical_path(info.first_hop_switch, host.name, info.middlebox_chain)

        # §5.3: "checks the message rate of all switches on the path to
        # make sure their control plane is not overloaded" — defer and
        # retry when any path switch's pending-install backlog is high.
        for node in path:
            scheduler = self.schedulers.get(node)
            if scheduler is not None and scheduler.backlog() > MIGRATION_BACKLOG_LIMIT:
                self.migrations_deferred += 1
                self.sim.schedule(STATS_INTERVAL, self._resubmit, key)
                return

        rules = self.router.rules_for_path(path, key)
        if not rules:
            self._migrating.discard(key)
            return
        jobs = self.installer.red_jobs(rules)
        self.installer.install(jobs, on_complete=lambda: self._finish(key))

    def _resubmit(self, key: FlowKey) -> None:
        info = self.flow_db.get(key)
        if info is None or info.route != ROUTE_OVERLAY:
            self._migrating.discard(key)
            return
        scheduler = self.schedulers.get(info.first_hop_switch)
        if scheduler is None:
            self._migrating.discard(key)
            return
        scheduler.submit_migration(MigrationRequest(run=lambda: self._serve_request(key)))

    def _finish(self, key: FlowKey) -> None:
        """The first-hop rule was sent: the flow now rides the physical
        path.  Clean the per-flow overlay rules off the vSwitches."""
        info = self.flow_db.get(key)
        if info is None:
            return
        self.flow_db.set_route(key, ROUTE_PHYSICAL, now=self.sim.now)
        # The overlay reinjection target is about to disappear; the
        # physical path's red rules handle everything from here.
        info.reinject = None
        self.migrations_completed += 1
        self._migrating.discard(key)
        for dpid, match, priority in list(info.overlay_sites):
            if dpid in self.controller.datapaths:
                self.controller.datapaths[dpid].send(
                    FlowMod(
                        match=match,
                        priority=priority,
                        table_id=VSWITCH_FLOW_TABLE,
                        command=DELETE,
                    )
                )
        info.overlay_sites.clear()
