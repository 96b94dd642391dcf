"""OpenFlow match semantics.

A :class:`Match` is a set of exact field constraints; any field not
mentioned is a wildcard.  Field values are extracted from the packet's
*current* outermost view, OpenFlow-style: ``mpls_label`` matches the
outermost MPLS shim, and the IP/L4 fields match the inner packet (our
encapsulation does not hide the inner tuple from the model — a
simplification that matches how the paper's switches match after
decapsulation, and the pipelines built here always pop encapsulation
before matching on the five-tuple).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.packet import Packet

#: The fields a Match may constrain, in canonical order.
MATCH_FIELDS: Tuple[str, ...] = (
    "in_port",
    "src_ip",
    "dst_ip",
    "proto",
    "src_port",
    "dst_port",
    "mpls_label",
)

#: Fields forming the exact five-tuple (used for the fast-path index).
FIVE_TUPLE: Tuple[str, ...] = ("src_ip", "dst_ip", "proto", "src_port", "dst_port")

_FIELD_SET = frozenset(MATCH_FIELDS)
_FIVE_SET = frozenset(FIVE_TUPLE)


def extract_fields(packet: Packet, in_port: int) -> Dict[str, object]:
    """The header-field view the pipeline matches against."""
    encap = packet.encap
    return {
        "in_port": in_port,
        "src_ip": packet.src_ip,
        "dst_ip": packet.dst_ip,
        "proto": packet.proto,
        "src_port": packet.src_port,
        "dst_port": packet.dst_port,
        "mpls_label": encap[-1].label if encap else None,
    }


def residual_holds(residual: Tuple[Tuple[str, object], ...], packet: Packet,
                   in_port: int) -> bool:
    """Whether ``packet`` arriving on ``in_port`` satisfies every
    ``(field, value)`` constraint of ``residual`` (a :class:`Match`'s
    ``residual`` view).

    The same test as ``Match.matches(extract_fields(packet, in_port))``
    restricted to those constraints, but each field is read where it
    lives — ``in_port``, a packet attribute, the outer header — so no
    field dict is built.  Constraint values are never None, so an absent
    header fails any label constraint.
    """
    for name, wanted in residual:
        if name == "in_port":
            if in_port != wanted:
                return False
        elif name == "mpls_label":
            encap = packet.encap
            if not encap or encap[-1].label != wanted:
                return False
        elif getattr(packet, name) != wanted:
            return False
    return True


class Match:
    """An exact-fields-with-wildcards match.

    Matches are immutable once built; ``__init__`` precomputes the views
    the datapath fast path consumes on every lookup:

    * ``_items`` — the constraints as a tuple of ``(field, value)`` pairs
      (what :meth:`matches` iterates, without a dict-items allocation);
    * ``has_five_tuple`` / ``_five_key`` — whether the full five-tuple is
      pinned, and its hash key for the :class:`~repro.switch.flow_table.
      FlowTable` per-flow index;
    * ``label_bucket`` — for a match without the full five-tuple that
      pins ``mpls_label``, that label: the key of the table's label
      index; None for every other match;
    * ``residual`` — the constraints the entry's own index has not
      already matched: everything beyond the five-tuple for a
      five-tuple match, everything beyond the bucket's label for a
      label-bucketed match, all constraints for the rest.  A lookup
      checks only this view (:func:`residual_holds`) on the candidates
      its indexes return; it is usually empty.
    """

    __slots__ = ("fields", "_items", "residual", "has_five_tuple", "_five_key",
                 "label_bucket")

    def __init__(self, **fields: object):
        if not _FIELD_SET.issuperset(fields):
            unknown = set(fields) - _FIELD_SET
            raise ValueError(f"unknown match fields: {sorted(unknown)}")
        self.fields: Dict[str, object] = {k: v for k, v in fields.items() if v is not None}
        self._items = tuple(self.fields.items())
        self.has_five_tuple = _FIVE_SET.issubset(self.fields)
        self._five_key = (
            tuple(self.fields[f] for f in FIVE_TUPLE) if self.has_five_tuple else None
        )
        self.label_bucket: Optional[object] = None
        matched = _FIVE_SET
        if not self.has_five_tuple:
            self.label_bucket = self.fields.get("mpls_label")
            matched = {"mpls_label"}
        self.residual = tuple((k, v) for k, v in self._items if k not in matched)

    @classmethod
    def for_flow(cls, key) -> "Match":
        """Exact five-tuple match for a FlowKey."""
        return cls.exact(key.src_ip, key.dst_ip, key.proto, key.src_port, key.dst_port)

    @classmethod
    def exact(cls, src_ip, dst_ip, proto, src_port, dst_port) -> "Match":
        """Exact five-tuple match.

        The reactive control path builds one of these per admitted flow
        per hop, so the generic ``__init__`` validation/derivation work
        is skipped and the precomputed views are filled in directly.
        The resulting object is state-identical to the keyword form
        (field insertion order included, which ``_items`` preserves).
        """
        five = (src_ip, dst_ip, proto, src_port, dst_port)
        if None in five:  # a wildcarded field: take the generic path
            return cls(**dict(zip(FIVE_TUPLE, five)))
        self = cls.__new__(cls)
        fields = {
            "src_ip": src_ip,
            "dst_ip": dst_ip,
            "proto": proto,
            "src_port": src_port,
            "dst_port": dst_port,
        }
        self.residual = ()
        self.fields = fields
        self._items = tuple(fields.items())
        self.has_five_tuple = True
        self._five_key = five
        self.label_bucket = None
        return self

    @classmethod
    def any(cls) -> "Match":
        """The all-wildcard (table-miss) match."""
        return cls()

    @property
    def is_exact_five_tuple(self) -> bool:
        """True when this match pins exactly the five-tuple (no more, no less)."""
        return set(self.fields) == _FIVE_SET

    def five_tuple_key(self) -> Tuple:
        if self._five_key is not None:
            return self._five_key
        return tuple(self.fields[f] for f in FIVE_TUPLE)

    def matches(self, fields: Dict[str, object]) -> bool:
        """Whether a packet field view satisfies every constraint."""
        get = fields.get
        for name, wanted in self._items:
            if get(name) != wanted:
                return False
        return True

    def matches_packet(self, packet: Packet, in_port: int) -> bool:
        return self.matches(extract_fields(packet, in_port))

    def key(self) -> Tuple:
        """A hashable identity (used for rule replacement/removal)."""
        return tuple(sorted(self.fields.items(), key=lambda kv: kv[0]))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Match) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"Match({inner})" if inner else "Match(*)"
