"""Synthetic traces for the trace-driven experiment.

The paper's trace-driven run uses a "realistic network environment"; we
substitute a synthetic data-center-style trace (see DESIGN.md §4): flow
arrivals are Poisson with a configurable surge phase (the flash crowd /
attack window), and sizes are heavy-tailed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.net.flow import FlowKey, FlowSpec
from repro.traffic.generators import flow_key_sequence
from repro.traffic.sizes import HeavyTailedSizes

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class TraceRecord:
    """One flow in a trace."""

    time: float
    src_host: str
    key: FlowKey
    size_packets: int
    packet_size: int
    rate_pps: float


def generate_trace(
    rng: random.Random,
    src_hosts: Sequence[str],
    dst_ips: Sequence[str],
    base_rate_fps: float,
    duration: float,
    surge_start: Optional[float] = None,
    surge_end: Optional[float] = None,
    surge_multiplier: float = 10.0,
    sizes: Optional[HeavyTailedSizes] = None,
) -> List[TraceRecord]:
    """A Poisson trace with an optional rate surge window.

    Flow sources/destinations are chosen uniformly; five-tuples are
    unique across the trace.
    """
    if not src_hosts or not dst_ips:
        raise ValueError("need at least one source and one destination")
    sizes = sizes or HeavyTailedSizes()
    keygens: Dict[str, Iterable] = {
        ip: flow_key_sequence(ip, src_net=30 + i % 200) for i, ip in enumerate(dst_ips)
    }
    records: List[TraceRecord] = []
    now = 0.0
    while True:
        rate = base_rate_fps
        if surge_start is not None and surge_end is not None and surge_start <= now < surge_end:
            rate = base_rate_fps * surge_multiplier
        now += rng.expovariate(rate)
        if now >= duration:
            break
        dst_ip = rng.choice(dst_ips)
        sample = sizes.sample(rng)
        records.append(
            TraceRecord(
                time=now,
                src_host=rng.choice(src_hosts),
                key=next(keygens[dst_ip]),
                size_packets=sample.size_packets,
                packet_size=sample.packet_size,
                rate_pps=sample.rate_pps,
            )
        )
    return records


class TraceReplayer:
    """Schedules every trace record onto its source host."""

    def __init__(self, sim: "Simulator", hosts: Dict[str, "Host"], batch: int = 10):
        self.sim = sim
        self.hosts = hosts
        self.batch = batch
        self.flows_scheduled = 0

    def schedule(self, records: Iterable[TraceRecord], offset: float = 0.0) -> None:
        for record in records:
            host = self.hosts.get(record.src_host)
            if host is None:
                raise KeyError(f"trace references unknown host {record.src_host!r}")
            spec = FlowSpec(
                key=record.key,
                start_time=record.time + offset,
                size_packets=record.size_packets,
                packet_size=record.packet_size,
                rate_pps=record.rate_pps,
                batch=self.batch,
            )
            host.start_flow(spec)
            self.flows_scheduled += 1
