"""Workload generation: clients, attackers, flow-size models, traces.

The paper's traffic tools are replaced 1:1: hping3's spoofed-source SYN
flood becomes :class:`~repro.traffic.attack.SpoofedFlood`; the legitimate
client that "simulates new flows by spoofing each packet's source IP"
(§3.2) becomes :class:`~repro.traffic.generators.NewFlowSource`; the
trace-driven experiment uses the synthetic heavy-tailed trace of
:mod:`repro.traffic.trace` (most flows are mice, most bytes are in a few
elephants — the property §5.3's migration design depends on, citing [1]).
"""

from repro.traffic.attack import SpoofedFlood
from repro.traffic.generators import NewFlowSource, flow_key_sequence
from repro.traffic.sizes import FixedSize, HeavyTailedSizes, SizeSample
from repro.traffic.trace import TraceRecord, TraceReplayer, generate_trace

__all__ = [
    "FixedSize",
    "HeavyTailedSizes",
    "NewFlowSource",
    "SizeSample",
    "SpoofedFlood",
    "TraceRecord",
    "TraceReplayer",
    "flow_key_sequence",
    "generate_trace",
]
