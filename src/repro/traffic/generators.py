"""New-flow generators for legitimate clients.

Per the paper's methodology (§3.2), each generated flow has a unique
five-tuple so the switch treats every flow's first packet as a table
miss; the client tap + server tap pair then yields the failure fraction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.net.addresses import make_ip
from repro.net.flow import FlowKey, FlowSpec
from repro.net.packet import PROTO_TCP
from repro.sim.process import Process
from repro.traffic.sizes import FixedSize

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.sim.engine import Simulator

#: Destination port of every generated client flow (web traffic).
DST_PORT = 80

#: Multiplicative jitter of a client's inter-flow gap: each gap is
#: drawn uniformly from ``[1 - JITTER, 1 + JITTER]`` times the mean.
JITTER = 0.05


def flow_key_sequence(
    dst_ip: str,
    src_net: int = 20,
    source_pool: Optional[int] = None,
) -> Iterator[FlowKey]:
    """An endless stream of unique five-tuples toward one destination.

    By default source addresses walk ``10.<src_net>.x.y`` and ports walk
    the ephemeral range, guaranteeing uniqueness for billions of flows
    without randomness (so client flows never collide with the
    attacker's random spoofed sources, which use non-10/8 space).

    ``source_pool`` limits the distinct sources to that many addresses
    (ports vary instead) — the shape of a *flash crowd*: many flows from
    a bounded set of real clients, as opposed to a spoofed flood's fresh
    source per packet.
    """
    index = 0
    while True:
        if source_pool is not None:
            src_ip = make_ip(src_net, index % source_pool)
            src_port = 1024 + (index // source_pool) % 60000
        else:
            src_ip = make_ip(src_net, index % 65536)
            src_port = 1024 + (index // 65536) % 60000
        yield FlowKey(src_ip, dst_ip, PROTO_TCP, src_port, DST_PORT)
        index += 1


class NewFlowSource:
    """Generates new flows from a host at a configurable rate.

    Arrivals are constant-spaced (with a small jitter), as in the
    paper's profiling experiments.  Flow sizes come from a size model
    (default: single-packet flows, the paper's stress shape).
    """

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        dst_ip: str,
        rate_fps: float,
        src_net: int = 20,
        sizes=None,
        rng_name: Optional[str] = None,
        source_pool: Optional[int] = None,
    ):
        if rate_fps <= 0:
            raise ValueError("flow rate must be positive")
        if source_pool is not None and source_pool < 1:
            raise ValueError("source_pool must be positive")
        self.sim = sim
        self.host = host
        self.rate_fps = rate_fps
        self.sizes = sizes or FixedSize()
        self._keys = flow_key_sequence(dst_ip, src_net=src_net, source_pool=source_pool)
        self._rng = sim.rng.stream(rng_name or f"client:{host.name}")
        self.flows_started = 0
        self._process: Optional[Process] = None

    def start(self, at: float = 0.0, stop_at: Optional[float] = None) -> None:
        self._stop_at = stop_at
        self._process = Process(self.sim, self._run(), start_delay=at)

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()

    def _next_gap(self) -> float:
        """Inter-flow gap.  Constant-rate gaps get a small multiplicative
        jitter — the OS scheduling noise real traffic tools exhibit —
        which prevents artificial phase locking between CBR sources and
        the OFA's deterministic service clock."""
        return 1.0 / self.rate_fps * self._rng.uniform(1 - JITTER, 1 + JITTER)

    def _run(self):
        while self._stop_at is None or self.sim.now < self._stop_at:
            sample = self.sizes.sample(self._rng)
            spec = FlowSpec(
                key=next(self._keys),
                start_time=self.sim.now,
                size_packets=sample.size_packets,
                packet_size=sample.packet_size,
                rate_pps=sample.rate_pps,
            )
            self.host.start_flow(spec)
            self.flows_started += 1
            yield self._next_gap()
