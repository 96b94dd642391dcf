"""Scotch: the paper's contribution.

The pieces map 1:1 onto the paper's design sections:

* :mod:`repro.core.config` — every tunable in one dataclass.
* :mod:`repro.core.overlay` — the vSwitch mesh, tunnels, activation
  (§4.1, §5.1) and the label registries that let the controller recover
  the original (switch, ingress port) from overlay Packet-Ins (§5.2).
* :mod:`repro.core.monitor` — Packet-In-rate congestion detection
  (§4.2) and the withdrawal condition (§5.5).
* :mod:`repro.core.flow_manager` — the controller-side queueing system
  of Fig. 7: per-ingress-port queues served round-robin at rate R,
  overlay and dropping thresholds, and the admitted > migration >
  ingress priority order (§5.2, §5.3); and the reactive app core that
  Scotch and the rate-R baselines share.
* :mod:`repro.core.migration` — large-flow detection via flow-stats and
  make-before-break migration to physical paths (§5.3).
* :mod:`repro.core.policy` — middlebox-consistent routing (§5.4, Fig. 8).
* :mod:`repro.core.withdrawal` — the three-step overlay withdrawal (§5.5).
* :mod:`repro.core.failover` — heartbeats and bucket replacement (§5.6).
* :mod:`repro.core.app` — the ScotchApp controller application wiring it
  all together.
* :mod:`repro.core.baselines` — the comparison schemes: vanilla reactive
  forwarding, §1's proactive pre-installation, §4's dedicated-port
  alternative, plain drop policing.
* :mod:`repro.core.security` — the §5.2 security-tool integration:
  attack detection/diagnosis (and optional data-plane mitigation) on
  top of Scotch's preserved flow visibility.
"""

from repro.core.app import ScotchApp
from repro.core.baselines import (
    DedicatedPortApp,
    DropPolicingApp,
    ProactiveApp,
    ReactiveForwardingApp,
)
from repro.core.config import ScotchConfig
from repro.core.monitor import CongestionMonitor
from repro.core.overlay import ScotchOverlay
from repro.core.policy import PolicyRegistry
from repro.core.security import AttackReport, SecurityApp

__all__ = [
    "AttackReport",
    "CongestionMonitor",
    "DedicatedPortApp",
    "DropPolicingApp",
    "PolicyRegistry",
    "ProactiveApp",
    "ReactiveForwardingApp",
    "ScotchApp",
    "ScotchConfig",
    "ScotchOverlay",
    "SecurityApp",
]
