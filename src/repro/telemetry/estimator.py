"""Controller-side flow estimation from packet samples.

Standard 1-in-N inversion (Duffield et al., and the NetFlow literature
cited in PAPERS.md): a flow observed ``s`` times under period-``N``
sampling is estimated at ``s * N`` packets.  For random/systematic
sampling the estimator variance is ``s * N * (N - 1)``, so the 95%
confidence half-width is ``1.96 * sqrt(s * N * (N - 1))``.  Relative
error shrinks as the flow grows — exactly the property elephant
detection needs: a 200-packet elephant at 1-in-10 yields ~20 samples
(±~13% CI), while mice mostly never get sampled and cost the controller
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flow import FlowKey
    from repro.openflow.messages import SampleReport


@dataclass
class FlowEstimate:
    """Running estimate for one flow at one vSwitch."""

    key: "FlowKey"
    dpid: str
    period: int
    samples: int
    sampled_bytes: int
    first_seen: float
    last_seen: float

    @property
    def est_packets(self) -> int:
        return self.samples * self.period


class FlowEstimator:
    """Accumulates sample reports into per-(vSwitch, flow) estimates."""

    def __init__(self) -> None:
        self._by_dpid: Dict[str, Dict["FlowKey", FlowEstimate]] = {}

    def ingest(self, dpid: str, report: "SampleReport", now: float) -> List[FlowEstimate]:
        """Fold one report in; returns the estimates it updated."""
        flows = self._by_dpid.setdefault(dpid, {})
        updated: List[FlowEstimate] = []
        for record in report.records:
            estimate = flows.get(record.key)
            if estimate is None:
                estimate = flows[record.key] = FlowEstimate(
                    key=record.key,
                    dpid=dpid,
                    period=report.period,
                    samples=0,
                    sampled_bytes=0,
                    first_seen=report.window_start,
                    last_seen=now,
                )
            estimate.samples += record.samples
            estimate.sampled_bytes += record.sampled_bytes
            estimate.last_seen = now
            updated.append(estimate)
        return updated

    def get(self, dpid: str, key: "FlowKey") -> FlowEstimate:
        return self._by_dpid.get(dpid, {}).get(key)

    def prune(self, older_than: float) -> int:
        """Drop estimates not refreshed since ``older_than`` (retired
        flows must not hold controller memory forever).  Returns how
        many were dropped."""
        dropped = 0
        for flows in self._by_dpid.values():
            stale = [key for key, est in flows.items() if est.last_seen < older_than]
            for key in stale:
                del flows[key]
            dropped += len(stale)
        return dropped
