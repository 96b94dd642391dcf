"""The switch data plane: multi-table pipeline with a forwarding budget.

Packets arriving on any port enter a short hardware buffer and are
processed at the switch's effective forwarding rate.  Processing walks
the flow tables from table 0, executing the winning entry's actions
(which may jump to a later table, hand the packet to a select group, or
punt to the OFA on a table miss).

The effective forwarding rate is queried from the OFA per service — this
is the Fig. 10 coupling: when the OFA is committing rules beyond the
degradation knee, table lookups stall and the budget collapses, so the
data path itself starts dropping even though the links are idle.

**One event per packet-hop.**  The datapath is a FIFO server that admits
arrivals lazily.  A link fires no delivery event at a switch: it hands
:meth:`Datapath.arrive` the packet and its arrival time ``at``, which is
noted on a heap with one :meth:`Datapath._step` booked at ``at + count /
pps``, the earliest instant that service can complete.  A step admits,
in ``(at, seq)`` order, every arrival with ``at <= now`` — count
``link.delivered``, drop on a dead switch, drop-tail on ``INGRESS_BUFFER``,
queue behind a train in service, else start service as of ``at`` at the
OFA's capacity at ``at`` — then completes the train that is due (its
lookup sees every rule committed by then) and chains the next queued one
at ``now``.  It is float-identical to admitting at ``at``, by three rules:

1. What admission reads (``switch.alive``, the OFA's install-rate meter)
   changes only after :meth:`Datapath.settle`: ``OpenFlowSwitch.fail`` /
   ``recover`` and ``OpenFlowAgent._handle_flow_mod`` call it first.
2. :meth:`Datapath.submit` (an arrival *now*) admits before returning,
   so ``dropped_no_buffer`` is current for a direct caller.
3. The booked time divides by the fastest rate the profile can return,
   so a slower (degraded) service gets a second event at its true
   completion and nothing is scheduled into the past.

Tie rule: an arrival at exactly a completion instant is admitted before
the completion pops the queue (an eager server goes by engine sequence);
they differ only with exactly ``INGRESS_BUFFER`` trains queued, where the
arrival is dropped.  ``link.delivered`` and ``dropped_no_buffer`` are
written at admission, at most one full-rate service time after ``at``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from repro.net.packet import MplsHeader, Packet
from repro.switch.actions import (
    Action,
    Drop,
    GotoTable,
    Group,
    Output,
    PopMpls,
    PushMpls,
)
from repro.switch.flow_table import FlowTable
from repro.switch.group_table import GroupTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.links import DirectedLink
    from repro.sim.engine import Simulator
    from repro.switch.switch import OpenFlowSwitch

#: Hardware ingress buffer, in packet trains.
INGRESS_BUFFER = 200


class Datapath:
    """Forwarding pipeline of one switch."""

    def __init__(self, sim: "Simulator", switch: "OpenFlowSwitch"):
        self.sim = sim
        self.switch = switch
        profile = switch.profile
        # TCAM capacity constrains the main (first) table where reactive
        # per-flow rules land; later tables hold static pipeline rules.
        self.tables: List[FlowTable] = [
            FlowTable(i, capacity=profile.tcam_capacity if i == 0 else None)
            for i in range(profile.n_tables)
        ]
        self.groups = GroupTable()
        #: Noted, not yet admitted: ``(at, seq, packet, in_port, link)``.
        self._arrivals: List[tuple] = []
        self._arrival_seq = 0
        #: Admitted trains waiting behind ``_serving``, the one in service:
        #: ``(completion time, packet, in_port)`` or None when idle.
        self._queue: Deque[Tuple[Packet, int]] = deque()
        self._serving: Optional[Tuple[float, Packet, int]] = None
        self._fastest_pps = max(profile.datapath_pps, profile.datapath_degraded_pps)
        self.processed = 0
        self.dropped_no_buffer = 0
        self.dropped_no_route = 0
        self.dropped_policy = 0
        self.punted = 0
        #: Optional packet sampler (repro.telemetry) attached by the
        #: sampling stats service.  None (the default) costs one pointer
        #: check per packet train — the zero-overhead-when-disabled
        #: contract of the sampled-telemetry subsystem.
        self.sampler = None

    def table(self, table_id: int) -> FlowTable:
        return self.tables[table_id]

    # ------------------------------------------------------------------
    # Ingress / service loop
    # ------------------------------------------------------------------
    def arrive(self, packet: Packet, in_port: int, at: float,
               link: Optional["DirectedLink"] = None) -> None:
        """Note a train reaching ``in_port`` at ``at`` (>= now) and book
        the earliest instant its service can complete."""
        self._arrival_seq += 1
        heappush(self._arrivals, (at, self._arrival_seq, packet, in_port, link))
        self.sim.schedule_at(at + packet.count / self._fastest_pps, self._step)

    def submit(self, packet: Packet, in_port: int) -> None:
        """Accept a packet arriving now; admitted before returning (rule 2)."""
        self.arrive(packet, in_port, self.sim.now)
        self.settle()

    def settle(self) -> None:
        """Admit, in ``(at, seq)`` order, every arrival due by now.  Run
        it before changing anything admission reads (rule 1)."""
        now = self.sim.now
        arrivals = self._arrivals
        while arrivals and arrivals[0][0] <= now:
            at, _, packet, in_port, link = heappop(arrivals)
            if link is not None:
                link.delivered += packet.count
            if not self.switch.alive:
                continue
            if len(self._queue) >= INGRESS_BUFFER:
                self.dropped_no_buffer += packet.count
            elif self._serving is not None:
                self._queue.append((packet, in_port))
            else:
                self._start(packet, in_port, at, booked=True)

    def _start(self, packet: Packet, in_port: int, start: float, booked: bool) -> None:
        """Put a train in service as of ``start``; schedule its completion
        unless a step is already ``booked`` there (idle, full rate)."""
        capacity = self.switch.ofa.datapath_capacity(start)
        done = start + packet.count / capacity
        self._serving = (done, packet, in_port)
        if not booked or capacity != self._fastest_pps:
            self.sim.schedule_at(done, self._step)

    def _step(self) -> None:
        """One event: admit what has arrived, complete what is due, and
        chain the next queued train."""
        self.settle()
        serving = self._serving
        if serving is None or serving[0] > self.sim.now:
            return
        _, packet, in_port = serving
        self.processed += packet.count
        self.process(packet, in_port)
        if self._queue:
            self._start(*self._queue.popleft(), self.sim.now, booked=False)
        else:
            self._serving = None

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def process(self, packet: Packet, in_port: int) -> None:
        """Run the packet through the tables, starting at table 0."""
        packet.hops.append(self.switch.name)
        if self.sampler is not None:
            self.sampler.observe(packet)
        tables = self.tables
        now = self.sim.now
        table_id = 0
        # A pipeline of n tables can take at most n-1 goto jumps without
        # revisiting a table; more means a rule loop (cheaper to count
        # than to track a per-packet visited set).
        jumps_left = len(tables)
        while True:
            entry = tables[table_id].lookup(packet, in_port, now)
            if entry is None:
                self.punted += 1
                self.switch.ofa.punt(packet, in_port)
                return
            next_table = self.execute_actions(packet, entry.actions, in_port)
            if next_table is None:
                return
            jumps_left -= 1
            if jumps_left <= 0:
                raise RuntimeError(
                    f"goto-table loop at {self.switch.name} table {next_table}"
                )
            table_id = next_table

    def execute_actions(
        self, packet: Packet, actions: List[Action], in_port: int = 0
    ) -> Optional[int]:
        """Apply an action list; returns a table id if a GotoTable asks
        the pipeline to continue, else None (packet fully handled)."""
        for action in actions:
            # Exact-type checks: actions are final dataclasses, and
            # `type(x) is C` skips the subclass walk isinstance pays for.
            kind = type(action)
            if kind is Output:
                port = self.switch.ports.get(action.port_no)
                if port is None:
                    self.dropped_no_route += packet.count
                    return None
                link = port.link  # Port.send, inlined
                if link is not None:
                    link.transmit(packet)
            elif kind is Group:
                group = self.groups.get(action.group_id)
                if group is None:
                    self.dropped_no_route += packet.count
                    return None
                bucket = group.select_bucket(packet)
                if bucket is None:
                    self.dropped_no_route += packet.count
                    return None
                return self.execute_actions(packet, bucket.actions, in_port)
            elif kind is PushMpls:
                packet.push(MplsHeader(action.label))
            elif kind is PopMpls:
                packet.popped_labels.append(packet.pop().label)
            elif kind is GotoTable:
                return action.table_id
            elif kind is Drop:
                self.dropped_policy += packet.count
                return None
            else:
                raise TypeError(f"unknown action {action!r}")
        return None
