"""Group tables (OpenFlow 1.3 §5.1 of the paper).

Scotch load-balances new flows over the switch->vSwitch tunnels with a
``select``-type group: one action bucket per tunnel, bucket chosen by a
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


@dataclass
class Bucket:
    """One action bucket: the actions plus an optional ECMP weight."""

    actions: List[Action]
    weight: int = 1
    label: str = ""
    packets: int = 0
    bytes: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("bucket weight must be positive")


class GroupEntry:
    """A group: ``select`` picks one bucket per flow, ``all`` replicates."""

    def __init__(self, group_id: int, group_type: str = "select", buckets: Optional[List[Bucket]] = None, hash_seed: int = 0):
        if group_type not in ("select", "all", "indirect"):
            raise ValueError(f"unsupported group type {group_type!r}")
        self.group_id = group_id
        self.group_type = group_type
        self.buckets: List[Bucket] = list(buckets or [])
        self.hash_seed = hash_seed

    def _flow_hash(self, packet: Packet) -> int:
        token = f"{self.hash_seed}|{packet.flow_key}"
        return zlib.crc32(token.encode("utf-8"))

    def select_bucket(self, packet: Packet) -> Optional[Bucket]:
        """The bucket this packet's flow hashes to (weighted), or None if
        the group has no buckets."""
        if not self.buckets:
            return None
        if self.group_type == "indirect" or len(self.buckets) == 1:
            return self.buckets[0]
        total_weight = sum(b.weight for b in self.buckets)
        point = self._flow_hash(packet) % total_weight
        for bucket in self.buckets:
            point -= bucket.weight
            if point < 0:
                return bucket
        return self.buckets[-1]  # unreachable; guards float/weight edge cases


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
