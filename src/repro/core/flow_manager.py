"""Controller-side flow management (paper Fig. 7, §5.2-§5.3).

Per physical switch the controller keeps:

* an **admitted-flow queue** (highest priority) — concrete FlowMods for
  flows already admitted to the physical network;
* a **large-flow migration queue** — FlowMods that move elephants from
  the overlay onto physical paths;
* **per-ingress-port queues** (lowest priority) — pending new flows,
  served round-robin so one attacked port cannot starve the others
  (§5.2's fair sharing across flow groups, with the ingress port as the
  group: the design Fig. 11 evaluates).

One server per switch drains these in strict priority order at rate R —
the switch's lossless rule-insertion rate (§6.1) — so the controller
never pushes the OFA into its insertion-loss region.

Flows beyond the per-port *overlay threshold* are routed over the Scotch
overlay instead (drained from the queue tail at ``overlay_install_rate``,
which only costs cheap vSwitch installs); beyond the *dropping
threshold* the Packet-Ins are discarded outright.

:class:`RateLimitedReactiveApp` is that path as a controller app — flow
state, one scheduler per managed switch and the make-before-break
physical install — shared by Scotch (``core.app``) and the §4 baselines
(``core.baselines``), which differ only in intake and in what they do
with the over-threshold excess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.controller.base_app import BaseApp
from repro.controller.flow_info_db import ROUTE_DROPPED, ROUTE_PHYSICAL, FlowInfoDatabase
from repro.controller.routing import Router
from repro.core.config import FLOW_IDLE_TIMEOUT, PRIORITY_PHYSICAL_FLOW, ScotchConfig
from repro.obs import path as obs_path
from repro.openflow.messages import FlowMod
from repro.sim.queues import BoundedQueue, RoundRobinScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.controller import OpenFlowController
    from repro.controller.routing import HopRule
    from repro.net.flow import FlowKey
    from repro.net.packet import Packet
    from repro.openflow.messages import PacketIn
    from repro.sim.engine import Simulator

#: Disposition values returned by :meth:`InstallScheduler.submit_new_flow`.
QUEUED = "queued"
DROPPED = "dropped"


@dataclass
class PendingFlow:
    """A new flow awaiting a routing decision."""

    key: "FlowKey"
    first_hop: str
    ingress_port: int
    packet: Optional["Packet"]
    entry_vswitch: Optional[str] = None
    enqueued_at: float = 0.0


@dataclass
class InstallJob:
    """A FlowMod destined for one switch, with a sent-notification."""

    dpid: str
    flow_mod: FlowMod
    on_sent: Optional[Callable[[], None]] = None


@dataclass
class MigrationRequest:
    """A §5.3 large-flow migration request awaiting its service slot.

    The migration queue holds *requests*, not rules: when a request is
    served, ``run()`` computes the path and pushes the flow's rules into
    the **admitted** queues of the path's switches (paper: "inserting
    the flow forwarding rules into the admitted flow queue of the
    corresponding switches").
    """

    run: Callable[[], None]


class InstallScheduler:
    """The per-switch queue system + rate-R server of Fig. 7."""

    def __init__(
        self,
        sim: "Simulator",
        controller: "OpenFlowController",
        dpid: str,
        rate: float,
        config: ScotchConfig,
        on_admit: Callable[[PendingFlow], None],
        on_overlay: Callable[[PendingFlow], None],
    ):
        if rate <= 0:
            raise ValueError("install rate R must be positive")
        self.sim = sim
        self.controller = controller
        self.dpid = dpid
        self.rate = rate
        self.config = config
        self.on_admit = on_admit
        self.on_overlay = on_overlay

        self.admitted = BoundedQueue(name=f"{dpid}.admitted")
        self.migration = BoundedQueue(name=f"{dpid}.migration")
        self.ingress = RoundRobinScheduler()
        self.overlay_enabled = False
        # Small service jitter: real controllers are not clock-exact.
        # Without it, an admission stream at exactly rate R locks step
        # with downstream servers also running at R and the strictly
        # lower-priority migration queue would never see an idle slot.
        self._rng = sim.rng.stream(f"scheduler:{dpid}")
        self._jitter = 0.05

        self._busy = False
        self._overlay_busy = False
        self.flows_admitted = 0
        self.flows_overlaid = 0
        self.flows_dropped = 0
        self.mods_sent = 0

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------
    def _group_queue(self, key: object) -> BoundedQueue:
        queue = self.ingress.get_queue(key)
        if queue is None:
            queue = BoundedQueue(name=f"{self.dpid}.group{key}")
            self.ingress.add_queue(key, queue)
        return queue

    def submit_new_flow(self, pending: PendingFlow) -> str:
        """Enqueue a Packet-In onto its ingress port's fair-sharing
        queue; drops beyond the dropping threshold (§5.2)."""
        queue = self._group_queue(pending.ingress_port)
        if len(queue) >= self.config.drop_threshold:
            self.flows_dropped += 1
            queue.dropped += 1
            return DROPPED
        pending.enqueued_at = self.sim.now
        queue.push(pending)
        self._kick()
        self._kick_overlay()
        return QUEUED

    def submit_admitted(
        self, flow_mod: FlowMod, on_sent: Optional[Callable[[], None]] = None
    ) -> None:
        self.admitted.push(InstallJob(self.dpid, flow_mod, on_sent))
        self._kick()

    def submit_migration(self, request: MigrationRequest) -> None:
        self.migration.push(request)
        self._kick()

    def set_overlay_enabled(self, enabled: bool) -> None:
        self.overlay_enabled = enabled
        if enabled:
            self._kick_overlay()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def backlog(self) -> int:
        """Pending FlowMods ahead of any new migration rule (used by the
        migrator's §5.3 overload check)."""
        return len(self.admitted) + len(self.migration)

    # ------------------------------------------------------------------
    # Rate-R priority server
    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        return bool(self.admitted or self.migration or self.ingress.total_backlog())

    def _kick(self) -> None:
        if not self._busy and self._has_work():
            self._busy = True
            gap = (1.0 / self.rate) * self._rng.uniform(1 - self._jitter, 1 + self._jitter)
            self.sim.schedule(gap, self._serve)

    def _serve(self) -> None:
        self._busy = False
        if self.admitted:
            job = self.admitted.pop()
            self.send(job.flow_mod, job.on_sent)
        elif self.migration:
            self.migration.pop().run()
        else:
            popped = self.ingress.pop_next()
            if popped is not None:
                _, pending = popped
                self.flows_admitted += 1
                self.on_admit(pending)
        self._kick()

    def send(self, flow_mod: FlowMod, on_sent: Optional[Callable[[], None]] = None) -> None:
        """Send one FlowMod to this switch now (counted in ``mods_sent``)."""
        self.controller.datapaths[self.dpid].send(flow_mod)
        self.mods_sent += 1
        if on_sent is not None:
            on_sent()

    # ------------------------------------------------------------------
    # Overlay drain: tail of any queue beyond the overlay threshold
    # ------------------------------------------------------------------
    def _overlay_candidates(self) -> Optional[BoundedQueue]:
        longest: Optional[BoundedQueue] = None
        for port in self.ingress:
            queue = self.ingress.get_queue(port)
            if len(queue) > self.config.overlay_threshold:
                if longest is None or len(queue) > len(longest):
                    longest = queue
        return longest

    def _kick_overlay(self) -> None:
        if (
            self.overlay_enabled
            and not self._overlay_busy
            and self._overlay_candidates() is not None
        ):
            self._overlay_busy = True
            self.sim.schedule(1.0 / self.config.overlay_install_rate, self._serve_overlay)

    def _serve_overlay(self) -> None:
        self._overlay_busy = False
        if not self.overlay_enabled:
            return
        queue = self._overlay_candidates()
        if queue is not None:
            pending = queue.pop_tail()
            self.flows_overlaid += 1
            self.on_overlay(pending)
        self._kick_overlay()


class PathInstaller:
    """Sequenced cross-switch rule installation.

    Rules are supplied **last hop first**; each physical-switch rule is
    enqueued to the *next* switch's queue only after the previous one was
    actually sent — the §5.3 make-before-break ordering ("the forwarding
    rule on the first hop switch is added at last").  Rules addressed to
    vSwitches bypass the per-switch budget (vSwitch installs are cheap)
    and are sent immediately.
    """

    #: Per-hop settle time after sending a FlowMod before the next hop is
    #: attempted: one-way control latency + OFA rule commit.  Real
    #: controllers get the same pacing from a barrier round trip.
    SETTLE_DELAY = 4e-3

    def __init__(
        self,
        controller: "OpenFlowController",
        schedulers: Dict[str, InstallScheduler],
    ):
        self.controller = controller
        self.schedulers = schedulers

    def install(
        self,
        jobs: List[InstallJob],
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Send ``jobs`` (last hop first) with sequencing through the
        per-switch **admitted** queues; calls ``on_complete`` one settle
        delay after the final rule is sent, i.e. when the whole path is
        expected to be live."""
        sim = self.controller.sim

        # ``send_from`` receives itself as an argument rather than
        # closing over its own name: a self-referencing closure is a
        # function<->cell cycle, which would keep every install's jobs,
        # FlowMods and Packet alive until the cyclic collector ran.  The
        # nested function keeps its name, which the engine records as the
        # scheduled callback's name.
        def send_from(send_from: Callable[..., None], index: int) -> None:
            if index >= len(jobs):
                if on_complete is not None:
                    on_complete()
                return
            job = jobs[index]
            chained = job.on_sent

            def advance() -> None:
                if chained is not None:
                    chained()
                sim.schedule(self.SETTLE_DELAY, send_from, send_from, index + 1)

            scheduler = self.schedulers.get(job.dpid)
            if scheduler is None:
                # A vSwitch (or unmanaged switch): send directly.
                self.controller.datapaths[job.dpid].send(job.flow_mod)
                advance()
            else:
                scheduler.submit_admitted(job.flow_mod, on_sent=advance)

        send_from(send_from, 0)

    @staticmethod
    def red_flow_mod(rule: "HopRule") -> FlowMod:
        """The per-flow physical ("red", §5.4) FlowMod for one path rule."""
        return FlowMod(
            match=rule.match,
            priority=PRIORITY_PHYSICAL_FLOW,
            actions=rule.actions,
            idle_timeout=FLOW_IDLE_TIMEOUT,
        )

    @classmethod
    def red_jobs(cls, rules: List["HopRule"]) -> List[InstallJob]:
        """One red FlowMod per path rule, in the rules' order (last hop
        first)."""
        return [InstallJob(rule.dpid, cls.red_flow_mod(rule)) for rule in rules]


class RateLimitedReactiveApp(BaseApp):
    """The Fig. 7 controller path as an app: Packet-In intake -> the
    switch's rate-R scheduler -> physical install, first hop last.

    ``start`` gives each of ``managed_switches`` its scheduler; a
    subclass may manage more later (``_add_scheduler``) and chooses what
    becomes of the over-threshold excess (``_handle_excess``; by default
    it is dropped).  The default intake attributes a Packet-In to the
    switch that sent it (``attribute``) and counts duplicates.
    """

    def __init__(
        self,
        config: Optional[ScotchConfig] = None,
        managed_switches=(),
    ):
        super().__init__()
        self.config = config or ScotchConfig()
        self.managed_switches = list(managed_switches)
        self.flow_db = FlowInfoDatabase()
        self.schedulers: Dict[str, InstallScheduler] = {}
        # Populated in start().
        self.router: Optional[Router] = None
        self.installer: Optional[PathInstaller] = None
        self.duplicate_packet_ins = 0
        self.unroutable = 0

    def start(self) -> None:
        self._obs = self.sim.obs
        self.router = Router(self.network)
        self.installer = PathInstaller(self.controller, self.schedulers)
        for name in self.managed_switches:
            self._add_scheduler(name)

    def _add_scheduler(self, name: str) -> InstallScheduler:
        """Manage ``name``: its Fig. 7 queues, served at R = the configured
        install rate or else the switch's lossless insertion rate (§6.1)."""
        rate = self.config.install_rate or self.network[name].profile.install_lossless_rate
        scheduler = self.schedulers[name] = InstallScheduler(
            self.sim,
            self.controller,
            name,
            rate,
            self.config,
            on_admit=self._admit_physical,
            on_overlay=self._handle_excess,
        )
        return scheduler

    # -- intake -----------------------------------------------------------
    def packet_in(self, dpid: str, message: "PacketIn") -> None:
        packet = message.packet
        if packet is None:
            return
        origin, port = self.attribute(dpid, message)
        if origin is None:
            return
        key = packet.flow_key
        if key in self.flow_db:
            self.duplicate_packet_ins += 1
            return
        self.flow_db.record(key, origin, port, self.sim.now)
        pending = PendingFlow(key=key, first_hop=origin, ingress_port=port, packet=packet)
        if self.schedulers[origin].submit_new_flow(pending) == DROPPED:
            self._drop(pending)

    def attribute(self, dpid: str, message: "PacketIn"):
        """(origin switch, ingress port) for a Packet-In, or (None, _)."""
        if dpid in self.schedulers:
            return dpid, message.in_port
        return None, 0

    # -- disposition -------------------------------------------------------
    def _decision(self, pending: PendingFlow, route: str) -> None:
        """Close the packet's control-path trace with its routing fate."""
        if pending.packet is not None and self._obs.tracer.enabled:
            obs_path.decision(self._obs, pending.packet, route=route)

    def _drop(self, pending: PendingFlow, unroutable: bool = False) -> None:
        """The flow gets no path; ``unroutable`` when none exists."""
        if unroutable:
            self.unroutable += 1
        self.flow_db.set_route(pending.key, ROUTE_DROPPED)
        self._decision(pending, "dropped")

    def _handle_excess(self, pending: PendingFlow) -> None:
        self._drop(pending)

    def _admit_physical(self, pending: PendingFlow) -> None:
        key = pending.key
        host = self.router.host_for(key.dst_ip)
        path = self.router.path_to(pending.first_hop, key.dst_ip) if host else None
        if path is None:
            self._drop(pending, unroutable=True)
            return
        self._install_physical(pending, self.router.rules_for_path(path, key))

    def _install_physical(
        self,
        pending: PendingFlow,
        rules: List["HopRule"],
        on_live: Optional[Callable[[str, list], None]] = None,
    ) -> None:
        """Put the flow on the physical path ``rules`` (last hop first).

        Make-before-break (§5.3): downstream rules first, through their
        switches' admitted queues; the first-hop rule goes out last
        (charged to this service slot — each served ingress item is
        exactly one rule installation at this switch), and only then is
        the buffered first packet forwarded and ``on_live(dpid,
        actions)`` told where later packets of the flow can be
        re-injected.  No rules (the destination hangs off the first hop)
        means nothing to install.
        """
        if rules:
            first_hop_rule = rules[-1]

            def finish() -> None:
                self.schedulers[pending.first_hop].send(
                    self.installer.red_flow_mod(first_hop_rule)
                )
                if pending.packet is not None:
                    self.controller.packet_out(
                        first_hop_rule.dpid,
                        pending.packet,
                        [first_hop_rule.actions[0]],
                        in_port=pending.ingress_port,
                    )
                if on_live is not None:
                    on_live(first_hop_rule.dpid, [first_hop_rule.actions[0]])

            downstream = self.installer.red_jobs(rules[:-1])
            if downstream:
                self.installer.install(downstream, on_complete=finish)
            else:
                finish()
        self.flow_db.set_route(pending.key, ROUTE_PHYSICAL)
        self._decision(pending, "physical")
