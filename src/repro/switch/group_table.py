"""Group tables (OpenFlow 1.3 §5.1 of the paper).

Scotch load-balances new flows over the switch->vSwitch tunnels with a
``select`` group: one action bucket per tunnel, bucket chosen by a
hash of the flow id (the spec leaves selection to the vendor; the paper
argues ECMP-style flow hashing is the likely choice, and per-flow
stickiness is what keeps all packets of a flow on one tunnel/vSwitch).

Bucket replacement (used when a vSwitch fails and its backup takes over,
paper §5.6) preserves the positions of the other buckets so unrelated
flows do not move.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.packet import Packet
from repro.switch.actions import Action


def flow_bucket(flow_key, n_buckets: int) -> int:
    """Index of the bucket a flow hashes to among ``n_buckets``: the
    switch's ECMP-style flow hash.  The controller calls it too, to
    predict which vSwitch a select group sends a flow to."""
    return zlib.crc32(f"0|{flow_key}".encode("utf-8")) % n_buckets


@dataclass
class Bucket:
    """One action bucket."""

    actions: List[Action]
    label: str = ""


class GroupEntry:
    """A ``select`` group: one bucket per flow, chosen by flow hash."""

    def __init__(self, group_id: int, buckets: Optional[List[Bucket]] = None):
        self.group_id = group_id
        self.buckets: List[Bucket] = list(buckets or [])

    def select_bucket(self, packet: Packet) -> Optional[Bucket]:
        """The bucket this packet's flow hashes to, or None if the group
        has no buckets."""
        buckets = self.buckets
        n_buckets = len(buckets)
        if n_buckets <= 1:
            return buckets[0] if buckets else None
        return buckets[flow_bucket(packet.flow_key, n_buckets)]


class GroupTable:
    """The per-switch registry of group entries."""

    def __init__(self):
        self._groups: Dict[int, GroupEntry] = {}

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, group_id: int) -> bool:
        return group_id in self._groups

    def add(self, entry: GroupEntry) -> None:
        if entry.group_id in self._groups:
            raise ValueError(f"group {entry.group_id} already exists")
        self._groups[entry.group_id] = entry

    def modify(self, entry: GroupEntry) -> None:
        if entry.group_id not in self._groups:
            raise KeyError(f"group {entry.group_id} does not exist")
        self._groups[entry.group_id] = entry

    def remove(self, group_id: int) -> None:
        self._groups.pop(group_id, None)

    def get(self, group_id: int) -> Optional[GroupEntry]:
        return self._groups.get(group_id)
