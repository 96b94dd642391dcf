"""Scripted fault timelines.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent`s — what
to break, when, and for how long.  Plans are plain data: building one
performs no randomness and touches no simulator, so the same plan can
be replayed against any deployment.  For randomized chaos,
:meth:`FaultPlan.randomized` draws a scripted timeline from a named
:class:`~repro.sim.rng.RngRegistry` substream — the plan is then fixed
before injection starts, so one seed always yields one fault sequence.

Fault classes (the ``kind`` field):

``channel_loss``
    Impair a switch's control channel for a window: message ``loss`` /
    ``duplicate`` probabilities and latency ``jitter``, per direction
    (``direction`` in ``"to_switch"``, ``"to_controller"``, ``"both"``).
``channel_flap``
    Disconnect/reconnect the channel ``flaps`` times, ``period`` seconds
    down then ``period`` seconds up per cycle.
``partition``
    Disconnect the channels of every switch in ``targets`` for
    ``duration`` seconds (a management-network partition).
``vswitch_crash``
    Crash the switch at ``time``; restart it (flow tables wiped, echo
    replies resume) after ``duration`` seconds.  ``duration`` 0 means it
    stays down.
``ofa_stall``
    Freeze the switch's OFA inbound processing for ``duration`` seconds
    (echo replies stop, then resume — no channel event).
``controller_outage``
    The controller goes dark for ``duration`` seconds (every channel
    severed); on expiry the standby takes over and apps providing a
    ``resync()`` hook re-establish their switch state.

Pool fault classes (``POOL_KINDS`` — only meaningful against a
deployment running a controller pool, docs/cluster.md):

``pool_member_crash``
    Crash pool member ``target``; restore it after ``duration`` seconds
    (0 = stays down).  Its switches orphan until the leader promotes a
    new master for each.
``pool_election_loss``
    Drop each pool-bus delivery with probability ``loss`` for
    ``duration`` seconds (lossy east-west management network — beats,
    claims and assigns all suffer).
``pool_partition``
    Split the pool bus into ``groups`` for ``duration`` seconds — the
    split-brain scenario the generation fencing exists for.

``POOL_KINDS`` is deliberately NOT part of ``KINDS``:
:meth:`FaultPlan.randomized` draws ``rng.choice(KINDS)``, so extending
that tuple would shift every randomized plan and break the golden
chaos fixtures.  Pool faults are scripted explicitly (or drawn by
:func:`repro.cluster.scenario.randomized_pool_plan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

KINDS = (
    "channel_loss",
    "channel_flap",
    "partition",
    "vswitch_crash",
    "ofa_stall",
    "controller_outage",
)

#: Pool-only fault kinds — kept OUT of ``KINDS`` so randomized()'s
#: ``rng.choice(KINDS)`` draw sequence (and with it every golden chaos
#: fixture) is unchanged by the pool's existence.
POOL_KINDS = (
    "pool_member_crash",
    "pool_election_loss",
    "pool_partition",
)

DIRECTIONS = ("to_switch", "to_controller", "both")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` applied to ``target`` at ``time``."""

    time: float
    kind: str
    target: str = ""
    duration: float = 0.0
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.kind not in KINDS + POOL_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {KINDS + POOL_KINDS}")
        if self.duration < 0:
            raise ValueError("fault duration must be non-negative")

    @property
    def args(self) -> Dict[str, object]:
        return dict(self.params)


class FaultPlan:
    """A timeline of fault events, kept sorted by injection time."""

    def __init__(self, events: Optional[Sequence[FaultEvent]] = None):
        self._events: List[FaultEvent] = sorted(
            events or (), key=lambda e: (e.time, e.kind, e.target)
        )

    # ------------------------------------------------------------------
    # Builders (all return self for chaining)
    # ------------------------------------------------------------------
    def _add(self, event: FaultEvent) -> "FaultPlan":
        self._events.append(event)
        self._events.sort(key=lambda e: (e.time, e.kind, e.target))
        return self

    def channel_loss(
        self,
        at: float,
        target: str,
        duration: float,
        loss: float = 0.05,
        duplicate: float = 0.0,
        jitter: float = 0.0,
        direction: str = "both",
    ) -> "FaultPlan":
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        return self._add(FaultEvent(
            at, "channel_loss", target, duration,
            params=(("loss", loss), ("duplicate", duplicate),
                    ("jitter", jitter), ("direction", direction)),
        ))

    def channel_flap(self, at: float, target: str, period: float = 0.5,
                     flaps: int = 3) -> "FaultPlan":
        if period <= 0 or flaps < 1:
            raise ValueError("need positive period and at least one flap")
        return self._add(FaultEvent(
            at, "channel_flap", target, duration=2 * period * flaps,
            params=(("period", period), ("flaps", flaps)),
        ))

    def partition(self, at: float, targets: Sequence[str], duration: float) -> "FaultPlan":
        if not targets:
            raise ValueError("partition needs at least one target")
        return self._add(FaultEvent(
            at, "partition", ",".join(targets), duration,
            params=(("targets", tuple(targets)),),
        ))

    def vswitch_crash(self, at: float, target: str, down_for: float = 0.0) -> "FaultPlan":
        return self._add(FaultEvent(at, "vswitch_crash", target, down_for))

    def ofa_stall(self, at: float, target: str, duration: float) -> "FaultPlan":
        if duration <= 0:
            raise ValueError("stall duration must be positive")
        return self._add(FaultEvent(at, "ofa_stall", target, duration))

    def controller_outage(self, at: float, duration: float) -> "FaultPlan":
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        return self._add(FaultEvent(at, "controller_outage", "controller", duration))

    # -- pool faults (docs/cluster.md) ---------------------------------
    def pool_member_crash(self, at: float, member: str,
                          down_for: float = 0.0) -> "FaultPlan":
        return self._add(FaultEvent(at, "pool_member_crash", member, down_for))

    def pool_election_loss(self, at: float, loss: float,
                           duration: float) -> "FaultPlan":
        if not 0 < loss <= 1:
            raise ValueError("pool election loss must be in (0, 1]")
        if duration <= 0:
            raise ValueError("pool election loss duration must be positive")
        return self._add(FaultEvent(
            at, "pool_election_loss", "pool-bus", duration,
            params=(("loss", loss),),
        ))

    def pool_partition(self, at: float, groups: Sequence[Sequence[str]],
                       duration: float) -> "FaultPlan":
        if len(groups) < 2 or any(not g for g in groups):
            raise ValueError("pool partition needs >= 2 non-empty groups")
        if duration <= 0:
            raise ValueError("pool partition duration must be positive")
        target = "|".join(",".join(g) for g in groups)
        return self._add(FaultEvent(
            at, "pool_partition", target, duration,
            params=(("groups", tuple(tuple(g) for g in groups)),),
        ))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def events(self) -> Tuple[FaultEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def end_time(self) -> float:
        """When the last fault (including its duration) has cleared."""
        return max((e.time + e.duration for e in self._events), default=0.0)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({e.kind for e in self._events}))

    # ------------------------------------------------------------------
    # Randomized construction (seed-deterministic)
    # ------------------------------------------------------------------
    @classmethod
    def randomized(
        cls,
        rng_registry,
        duration: float,
        channel_targets: Sequence[str],
        vswitch_targets: Sequence[str],
        intensity: float = 1.0,
    ) -> "FaultPlan":
        """Draw a scripted timeline from ``rng_registry.stream("faults")``,
        with every fault at or after t = 1 s.

        ``intensity`` scales the expected fault count (~4 * intensity
        over the window).  All draws happen here, up front — injection
        replays the finished plan, so the fault sequence depends only on
        the registry's seed, never on simulation interleaving.
        """
        start = 1.0
        if duration <= start:
            raise ValueError("duration must exceed the start offset")
        if not channel_targets or not vswitch_targets:
            raise ValueError("need at least one channel and one vswitch target")
        rng = rng_registry.stream("faults")
        plan = cls()
        count = max(1, round(4 * intensity))
        window = duration - start
        for index in range(count):
            at = start + rng.uniform(0.0, window * 0.8)
            kind = rng.choice(KINDS)
            if kind == "channel_loss":
                plan.channel_loss(
                    at, rng.choice(list(channel_targets)),
                    duration=rng.uniform(0.5, window * 0.15),
                    loss=rng.uniform(0.02, 0.15),
                    duplicate=rng.uniform(0.0, 0.05),
                    jitter=rng.uniform(0.0, 2e-3),
                    direction=rng.choice(list(DIRECTIONS)),
                )
            elif kind == "channel_flap":
                plan.channel_flap(
                    at, rng.choice(list(channel_targets)),
                    period=rng.uniform(0.1, 0.5), flaps=rng.randint(2, 5),
                )
            elif kind == "partition":
                size = rng.randint(1, max(1, len(channel_targets) // 2))
                targets = sorted(rng.sample(list(channel_targets), size))
                plan.partition(at, targets, duration=rng.uniform(0.5, 2.0))
            elif kind == "vswitch_crash":
                plan.vswitch_crash(
                    at, rng.choice(list(vswitch_targets)),
                    down_for=rng.uniform(1.0, window * 0.2),
                )
            elif kind == "ofa_stall":
                plan.ofa_stall(
                    at, rng.choice(list(vswitch_targets)),
                    duration=rng.uniform(0.5, 3.0),
                )
            else:  # controller_outage
                plan.controller_outage(at, duration=rng.uniform(0.5, 2.0))
        return plan
