"""A security application on top of Scotch's preserved visibility.

The paper's motivation for keeping every new flow visible to the
controller even under overload: "The collected flow information can be
fed into the security tools to help pinpoint the root cause of the
overloading" (§1) and "Existing network security tools or solutions can
be readily integrated into our framework, e.g., as a new application at
the SDN controller" (§5.2).

:class:`SecurityApp` is exactly that application.  It taps the same
Packet-In stream (attributed back to the original switch/port via the
overlay's §5.2 label registries), tracks per-ingress-port new-flow rates
and source/destination dispersion, and raises an :class:`AttackReport`
when a port's rate crosses its threshold — diagnosing spoofed-source
floods by their source dispersion and naming the victim destination.

Mitigation is pluggable:

* ``"report"`` (default) — detection only; reports accumulate and an
  optional callback fires.
* ``"block"`` — install a drop rule at the attacked switch for
  (ingress port, victim destination), at a priority above the Scotch
  defaults but *below* per-flow red rules, so already-admitted flows
  keep working while the unadmitted flood is shed in the data plane.
  The rule idles out, so mitigation decays with the attack — the
  trade-off (legitimate *new* flows from that port to the victim are
  collateral during the attack) is inherent to spoofed sources and is
  the operator's call, which is why it is not the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.controller.base_app import BaseApp
from repro.core.config import MAIN_TABLE, PRIORITY_SCOTCH_DEFAULT
from repro.core.overlay import ScotchOverlay
from repro.switch.actions import Drop
from repro.switch.match import Match

if TYPE_CHECKING:  # pragma: no cover
    from repro.openflow.messages import PacketIn

#: Priority of mitigation drop rules: above the green overlay defaults,
#: below red per-flow rules (admitted flows are never collateral).
PRIORITY_MITIGATION = PRIORITY_SCOTCH_DEFAULT + 5
#: New-flow rate (flows/second) on one ingress port that raises a report.
RATE_THRESHOLD = 500.0
#: Fraction of distinct sources per flow above which the flood is
#: diagnosed as spoofed (spoofed floods use a fresh source per packet;
#: flash crowds repeat sources).
SPOOFING_DISPERSION = 0.8
#: Idle timeout of mitigation drop rules, seconds.
MITIGATION_IDLE_TIMEOUT = 30.0

REPORT = "report"
BLOCK = "block"


@dataclass
class AttackReport:
    """One detection event."""

    time: float
    switch: str
    port: int
    new_flow_rate: float
    distinct_sources: int
    top_destination: Optional[str]
    spoofing_suspected: bool
    mitigated: bool = False


class _PortWindow:
    """Per-(switch, port) accounting for the current detection window."""

    __slots__ = ("flows", "sources", "destinations")

    def __init__(self):
        self.flows = 0
        self.sources: Set[str] = set()
        self.destinations: Dict[str, int] = {}

    def observe(self, packet) -> None:
        self.flows += 1
        self.sources.add(packet.src_ip)
        self.destinations[packet.dst_ip] = self.destinations.get(packet.dst_ip, 0) + 1

    def top_destination(self) -> Optional[str]:
        if not self.destinations:
            return None
        return max(self.destinations.items(), key=lambda kv: kv[1])[0]


class SecurityApp(BaseApp):
    """Attack detection (and optional mitigation) over Scotch visibility."""

    def __init__(
        self,
        overlay: ScotchOverlay,
        interval: float = 1.0,
        mitigation: str = REPORT,
        on_attack: Optional[Callable[[AttackReport], None]] = None,
    ):
        super().__init__()
        if mitigation not in (REPORT, BLOCK):
            raise ValueError(f"unknown mitigation {mitigation!r}")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.overlay = overlay
        self.interval = interval
        self.mitigation = mitigation
        self.on_attack = on_attack
        self.reports: List[AttackReport] = []
        self.mitigations_installed = 0
        self._windows: Dict[Tuple[str, int], _PortWindow] = {}
        self._mitigated: Set[Tuple[str, int, str]] = set()

    def start(self) -> None:
        self.sim.schedule(self.interval, self._evaluate)

    # ------------------------------------------------------------------
    # Packet-In tap
    # ------------------------------------------------------------------
    def packet_in(self, dpid: str, message: "PacketIn") -> None:
        packet = message.packet
        if packet is None:
            return
        attribution = self.overlay.attribute_packet_in(dpid, message)
        if attribution is not None:
            origin, port = attribution
        elif dpid in self.overlay.assignment:
            origin, port = dpid, message.in_port
        else:
            return
        window = self._windows.get((origin, port))
        if window is None:
            window = self._windows[(origin, port)] = _PortWindow()
        window.observe(packet)

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def _evaluate(self) -> None:
        for (switch, port), window in self._windows.items():
            rate = window.flows / self.interval
            if rate >= RATE_THRESHOLD:
                self._raise_attack(switch, port, rate, window)
        self._windows = {}
        self.sim.schedule(self.interval, self._evaluate)

    def _raise_attack(self, switch: str, port: int, rate: float, window: _PortWindow) -> None:
        dispersion = len(window.sources) / max(1, window.flows)
        report = AttackReport(
            time=self.sim.now,
            switch=switch,
            port=port,
            new_flow_rate=rate,
            distinct_sources=len(window.sources),
            top_destination=window.top_destination(),
            spoofing_suspected=dispersion >= SPOOFING_DISPERSION,
        )
        # Only spoofed floods are blocked: a flash crowd is *legitimate*
        # load, and carrying it is exactly what the Scotch overlay is for.
        if (
            self.mitigation == BLOCK
            and report.spoofing_suspected
            and report.top_destination is not None
        ):
            report.mitigated = self._block(switch, port, report.top_destination)
        self.reports.append(report)
        if self.on_attack is not None:
            self.on_attack(report)

    # ------------------------------------------------------------------
    # Mitigation
    # ------------------------------------------------------------------
    def _block(self, switch: str, port: int, victim: str) -> bool:
        token = (switch, port, victim)
        if token in self._mitigated:
            return True
        if switch not in self.controller.datapaths:
            return False
        self.controller.flow_mod(
            switch,
            Match(in_port=port, dst_ip=victim),
            PRIORITY_MITIGATION,
            [Drop()],
            table_id=MAIN_TABLE,
            idle_timeout=MITIGATION_IDLE_TIMEOUT,
        )
        self._mitigated.add(token)
        self.mitigations_installed += 1
        return True
