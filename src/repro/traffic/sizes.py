"""Flow size models.

The migration design rests on the measured skew the paper cites:
"Measurement studies have shown that the majority of link capacity is
consumed by a small fraction of large flows" (§5.3, citing [1]).
:class:`HeavyTailedSizes` reproduces that skew with a mice/elephant
mixture: flows are small with high probability, and a small elephant
fraction carries most bytes (Pareto-tailed sizes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class SizeSample:
    """One sampled flow: packet count, per-packet bytes, send rate."""

    size_packets: int
    packet_size: int
    rate_pps: float
    is_elephant: bool = False


class FixedSize:
    """Every flow identical — the paper's stress tests use 1-packet flows."""

    def __init__(self, size_packets: int = 1, packet_size: int = 1500, rate_pps: float = 100.0):
        self.size_packets = size_packets
        self.packet_size = packet_size
        self.rate_pps = rate_pps

    def sample(self, rng: random.Random) -> SizeSample:
        return SizeSample(self.size_packets, self.packet_size, self.rate_pps)


#: :class:`HeavyTailedSizes`' mean mice length, packets.
MICE_MEAN_PKTS = 5.0
#: Its bytes per packet, and the send rates of mice and elephants.
PACKET_SIZE = 1500
MICE_RATE_PPS = 100.0
ELEPHANT_RATE_PPS = 2000.0
#: Pareto shape of the elephant sizes (> 1 for a finite mean).
PARETO_ALPHA = 1.5


class HeavyTailedSizes:
    """Mice/elephant mixture with Pareto-tailed elephant sizes.

    Defaults produce ~95% mice averaging a handful of packets
    (``MICE_MEAN_PKTS``) and ~5% elephants averaging
    ``elephant_mean_pkts``, so elephants carry the large majority of
    bytes.  Every packet is ``PACKET_SIZE`` bytes; mice send at
    ``MICE_RATE_PPS``, elephants at ``ELEPHANT_RATE_PPS``.
    """

    def __init__(
        self,
        elephant_fraction: float = 0.05,
        elephant_mean_pkts: float = 2000.0,
    ):
        if not 0 <= elephant_fraction <= 1:
            raise ValueError("elephant_fraction must be in [0, 1]")
        self.elephant_fraction = elephant_fraction
        # Pareto minimum chosen so the tail mean equals elephant_mean_pkts:
        # E[X] = alpha * xm / (alpha - 1).
        self._pareto_xm = elephant_mean_pkts * (PARETO_ALPHA - 1) / PARETO_ALPHA

    def sample(self, rng: random.Random) -> SizeSample:
        if rng.random() < self.elephant_fraction:
            size = max(2, int(self._pareto_xm * rng.paretovariate(PARETO_ALPHA)))
            return SizeSample(size, PACKET_SIZE, ELEPHANT_RATE_PPS, is_elephant=True)
        size = max(1, int(rng.expovariate(1.0 / MICE_MEAN_PKTS)) + 1)
        return SizeSample(size, PACKET_SIZE, MICE_RATE_PPS, is_elephant=False)
