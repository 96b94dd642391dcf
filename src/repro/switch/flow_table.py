"""Flow tables: priority lookup, idle timeouts, and TCAM capacity.

Lookup semantics follow the OpenFlow spec: the highest-priority matching
entry wins; ties are broken by installation order (older first), which is
deterministic and matches common implementations.

For speed the table keeps three structures:

* a **per-flow index**: entries whose match pins the full five-tuple
  (possibly with extra constraints such as an MPLS label or in_port) are
  bucketed by five-tuple — these are the per-flow rules a reactive
  controller installs by the thousands, and each bucket stays tiny;
* a **label index** over the rest: entries that pin ``mpls_label`` —
  the overlay's tunnel transit and terminal rules, of which a fabric
  switch carries one per tunnel — are bucketed by that exact label;
* a small **general scan list** for everything else (per-port defaults,
  per-destination delivery rules, table-miss catch-alls), kept sorted
  by priority.

Which structure an entry lives in is decided by its match
(``Match.has_five_tuple``, ``Match.label_bucket``), and so is the
``Match.residual`` view: the constraints that structure has not already
matched.  A lookup consults the five-tuple bucket, the packet's label
bucket and the general list (the latter two merged in priority order),
checks each candidate's residual against the packet, and picks the
highest-priority winner, so the indexing never changes semantics
(verified by a property test that compares against a naive full scan).
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import Callable, Dict, List, Optional, Tuple

from repro.switch.actions import Action
from repro.switch.match import Match, residual_holds

_entry_ids = itertools.count(1)


class TableFullError(Exception):
    """Raised when inserting into a TCAM that is at capacity (§3.3)."""


class FlowEntry:
    """One rule: match + priority + action list + idle timeout + packet
    count."""

    __slots__ = (
        "entry_id",
        "match",
        "priority",
        "actions",
        "idle_timeout",
        "last_hit_at",
        "packets",
        "cookie",
        "notify_removal",
    )

    def __init__(
        self,
        match: Match,
        priority: int,
        actions: List[Action],
        idle_timeout: float = 0.0,
        cookie: Optional[object] = None,
        notify_removal: bool = False,
    ):
        if priority < 0:
            raise ValueError("priority must be non-negative")
        self.entry_id = next(_entry_ids)
        self.match = match
        self.priority = priority
        self.actions = list(actions)
        self.idle_timeout = idle_timeout
        #: Set to the install time by :meth:`FlowTable.insert`.
        self.last_hit_at = 0.0
        self.packets = 0
        self.cookie = cookie
        #: Emit a FlowRemoved toward the controller when this entry
        #: expires (the OpenFlow SEND_FLOW_REM flag).
        self.notify_removal = notify_removal

    def expired(self, now: float) -> bool:
        return self.idle_timeout > 0 and now - self.last_hit_at >= self.idle_timeout

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowEntry #{self.entry_id} p{self.priority} {self.match!r}>"


def _wild_sort_key(entry: FlowEntry) -> Tuple[int, int]:
    """Scan order: priority descending, then installation order."""
    return (-entry.priority, entry.entry_id)


class FlowTable:
    """One table of the pipeline, with optional TCAM capacity."""

    def __init__(self, table_id: int = 0, capacity: Optional[int] = None):
        self.table_id = table_id
        self.capacity = capacity
        self._size = 0
        self._indexed: Dict[Tuple, List[FlowEntry]] = {}
        #: All non-five-tuple entries, sorted by ``_wild_sort_key``
        #: (the master list: entries()/remove_where iterate it).
        self._wild: List[FlowEntry] = []
        #: Label-pinning subset of _wild, bucketed by exact label value;
        #: each bucket sorted by ``_wild_sort_key``.
        self._wild_label: Dict[object, List[FlowEntry]] = {}
        #: The label-free subset of _wild, sorted by ``_wild_sort_key``.
        self._wild_general: List[FlowEntry] = []
        self.lookups = 0
        self.hits = 0
        #: Invoked with the entry whenever a timed-out entry is evicted
        #: (lazily during lookup or by an expire() sweep); the switch
        #: wires this to FlowRemoved generation.
        self.on_expired: Optional[Callable[[FlowEntry], None]] = None

    # ------------------------------------------------------------------
    # Size / contents
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self.capacity is not None and self._size >= self.capacity

    def entries(self) -> List[FlowEntry]:
        """All live entries (no expiry applied)."""
        out: List[FlowEntry] = []
        for bucket in self._indexed.values():
            out.extend(bucket)
        out.extend(self._wild)
        return out

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, entry: FlowEntry, now: float = 0.0) -> None:
        """Install a rule.  A rule with an identical match and priority
        replaces the old one (OpenFlow overlap-replace behaviour);
        otherwise a full table raises :class:`TableFullError`."""
        existing = self._find_same(entry.match, entry.priority)
        if existing is not None:
            self._remove_entry(existing)
        elif self.full:
            raise TableFullError(f"table {self.table_id} at capacity {self.capacity}")
        entry.last_hit_at = now
        if entry.match.has_five_tuple:
            self._indexed.setdefault(entry.match.five_tuple_key(), []).append(entry)
        else:
            # Keep every scan structure ordered (priority desc, then
            # insertion order); sort keys are unique, so insort lands
            # each entry exactly where a full re-sort would.
            insort(self._wild, entry, key=_wild_sort_key)
            bucket_key = entry.match.label_bucket
            if bucket_key is None:
                insort(self._wild_general, entry, key=_wild_sort_key)
            else:
                insort(
                    self._wild_label.setdefault(bucket_key, []),
                    entry,
                    key=_wild_sort_key,
                )
        self._size += 1

    def remove(self, match: Match, priority: Optional[int] = None) -> int:
        """Remove entries whose match equals ``match`` (and priority, if
        given).  Returns the number removed."""
        if match.has_five_tuple:
            candidates = list(self._indexed.get(match.five_tuple_key(), ()))
        else:
            # An equal match shares the same label signature, so only
            # its own bucket can hold candidates.
            bucket_key = match.label_bucket
            if bucket_key is None:
                candidates = list(self._wild_general)
            else:
                candidates = list(self._wild_label.get(bucket_key, ()))
        removed = 0
        for entry in candidates:
            if entry.match == match and (priority is None or entry.priority == priority):
                self._remove_entry(entry)
                removed += 1
        return removed

    def remove_where(self, predicate: Callable[[FlowEntry], bool]) -> int:
        removed = 0
        for entry in self.entries():
            if predicate(entry):
                self._remove_entry(entry)
                removed += 1
        return removed

    def expire(self, now: float) -> List[FlowEntry]:
        """Remove and return all timed-out entries."""
        expired = [e for e in self.entries() if e.expired(now)]
        for entry in expired:
            self._remove_entry(entry)
            self._notify_expired(entry)
        return expired

    def _notify_expired(self, entry: FlowEntry) -> None:
        if self.on_expired is not None:
            self.on_expired(entry)

    def _find_same(self, match: Match, priority: int) -> Optional[FlowEntry]:
        if match.has_five_tuple:
            candidates = self._indexed.get(match.five_tuple_key(), ())
        else:
            bucket_key = match.label_bucket
            if bucket_key is None:
                candidates = self._wild_general
            else:
                candidates = self._wild_label.get(bucket_key, ())
        for entry in candidates:
            if entry.priority == priority and entry.match == match:
                return entry
        return None

    def _remove_entry(self, entry: FlowEntry) -> None:
        if entry.match.has_five_tuple:
            key = entry.match.five_tuple_key()
            bucket = self._indexed.get(key)
            if bucket is None:
                return
            try:
                bucket.remove(entry)
            except ValueError:
                return
            if not bucket:
                del self._indexed[key]
        else:
            try:
                self._wild.remove(entry)
            except ValueError:
                return
            bucket_key = entry.match.label_bucket
            if bucket_key is None:
                self._wild_general.remove(entry)
            else:
                bucket = self._wild_label[bucket_key]
                bucket.remove(entry)
                if not bucket:
                    del self._wild_label[bucket_key]
        self._size -= 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, packet, in_port: int, now: float) -> Optional[FlowEntry]:
        """Highest-priority live match, with lazy expiry of the indexed
        candidates it inspects.  Updates counters on the winner.

        Hot path: the five-tuple key is built straight from the packet
        attributes, and each candidate is checked only against its
        match's ``residual`` — the constraints its own index did not
        already match (for a five-tuple bucket entry, those beyond the
        five-tuple; for a label bucket entry, those beyond the label;
        usually none) — read straight off ``in_port``, the packet and
        its outer header, so no field dict is built.  The timeout and
        winner checks are inlined (no per-candidate calls).
        Non-indexed candidates come from the packet's label bucket and
        the general list, merged in scan order — entries pinning a
        *different* label can never match and are never visited.
        """
        self.lookups += 1
        best: Optional[FlowEntry] = None

        bucket = self._indexed.get(
            (packet.src_ip, packet.dst_ip, packet.proto, packet.src_port, packet.dst_port)
        )
        if bucket:
            for entry in (bucket[0],) if len(bucket) == 1 else list(bucket):
                idle = entry.idle_timeout
                if idle > 0.0 and now - entry.last_hit_at >= idle:
                    self._remove_entry(entry)
                    self._notify_expired(entry)
                    continue
                residual = entry.match.residual
                if residual and not residual_holds(residual, packet, in_port):
                    continue
                if best is None or (entry.priority, -entry.entry_id) > (
                    best.priority, -best.entry_id
                ):
                    best = entry

        general = self._wild_general
        labelled: Optional[List[FlowEntry]] = None
        if self._wild_label:
            encap = packet.encap
            if encap:
                labelled = self._wild_label.get(encap[-1].label)
        # Merge the two sorted lists in scan order (priority desc, then
        # installation order) — identical visiting order to the old
        # single-list scan, minus the impossible label candidates.
        gi, gn = 0, len(general)
        li, ln = 0, (len(labelled) if labelled else 0)
        while gi < gn or li < ln:
            if gi < gn:
                entry = general[gi]
                if li < ln:
                    other = labelled[li]
                    if (other.priority, -other.entry_id) > (entry.priority, -entry.entry_id):
                        entry = other
                        li += 1
                    else:
                        gi += 1
                else:
                    gi += 1
            else:
                entry = labelled[li]
                li += 1
            if best is not None:
                # Once the current winner beats the cursor nothing
                # better follows in either list.
                priority = entry.priority
                if priority < best.priority or (
                    priority == best.priority and entry.entry_id > best.entry_id
                ):
                    break
            idle = entry.idle_timeout
            if idle > 0.0 and now - entry.last_hit_at >= idle:
                continue  # removed by the next expire() sweep
            residual = entry.match.residual
            if residual and not residual_holds(residual, packet, in_port):
                continue
            best = entry
            break

        if best is not None:
            self.hits += 1
            best.last_hit_at = now
            best.packets += packet.count
        return best
