"""The DDoS attacker: a spoofed-source SYN flood (hping3 equivalent).

"We use hping3 to generate attacking traffic ... We simulate the new
flows by spoofing each packet's source IP address. Since the OpenFlow
controller installs the flow rules at the switch using both the source
and destination IP addresses, a spoofed packet is treated as a new flow
by the switch. Hence the flow rate ... is equivalent to the packet
rate." (§3.2)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.addresses import random_spoofed_ip
from repro.net.packet import PROTO_TCP, TCP_SYN, Packet
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.sim.engine import Simulator

#: hping3 sends minimum-size SYNs; 60 bytes on the wire.
SYN_PACKET_SIZE = 60
#: hping3's pacing is not cycle-accurate: each gap is scaled by a uniform
#: draw in [1 - JITTER, 1 + JITTER], which also prevents artificial phase
#: locking with the OFA clock.
JITTER = 0.05


class SpoofedFlood:
    """Constant-rate flood of single-packet "flows" with random sources."""

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        dst_ip: str,
        rate_fps: float,
        rng_name: Optional[str] = None,
    ):
        if rate_fps <= 0:
            raise ValueError("attack rate must be positive")
        self.sim = sim
        self.host = host
        self.dst_ip = dst_ip
        self.rate_fps = rate_fps
        self._rng = sim.rng.stream(rng_name or f"attacker:{host.name}")
        self.packets_sent = 0
        self._process: Optional[Process] = None
        self._stop_at: Optional[float] = None

    def set_rate(self, rate_fps: float) -> None:
        if rate_fps <= 0:
            raise ValueError("attack rate must be positive")
        self.rate_fps = rate_fps

    def start(self, at: float = 0.0, stop_at: Optional[float] = None) -> None:
        self._stop_at = stop_at
        self._process = Process(self.sim, self._run(), start_delay=at)

    def stop(self) -> None:
        self._stop_at = self.sim.now
        if self._process is not None:
            self._process.stop()

    def _run(self):
        while self._stop_at is None or self.sim.now < self._stop_at:
            packet = Packet(
                src_ip=random_spoofed_ip(self._rng),
                dst_ip=self.dst_ip,
                proto=PROTO_TCP,
                src_port=self._rng.randrange(1024, 65536),
                dst_port=80,
                size=SYN_PACKET_SIZE,
                tcp_flag=TCP_SYN,
                created_at=self.sim.now,
            )
            self.host.send(packet)
            self.packets_sent += 1
            yield 1.0 / self.rate_fps * self._rng.uniform(1 - JITTER, 1 + JITTER)
