"""Declarative alert rules over streaming SLIs (docs/observability.md).

A rule is one line of a small Prometheus-flavoured DSL::

    name: <sli> <op> <threshold> [for SEC] [clear VALUE]
          [detects class[,class...]] [severity LEVEL]

* ``op`` is ``>`` or ``<`` against the SLI's current windowed value;
* ``for`` is the hold duration — the condition must stay breached that
  many simulation seconds before the alert fires (Prometheus ``for:``);
* ``clear`` is the hysteresis level: a firing ``>``-rule resolves only
  once the SLI falls back to ``<= clear`` (a ``<``-rule once it climbs
  back to ``>= clear``), so an SLI jittering around the threshold does
  not flap the alert;
* ``detects`` names the fault classes (``FaultInjector`` kinds, plus the
  synthetic ``flash_crowd``) whose ground-truth windows this rule is
  expected to cover — the detection scorecard joins on it;
* ``severity`` is a free-form label carried into the timeline.

Evaluation is a pending → firing → resolved state machine
(:class:`AlertState`), advanced once per health-engine tick.  Every
transition appends one record to the deterministic alert timeline:
same seed ⇒ byte-identical JSONL.

``<``-rules additionally *arm on activity*: the rule stays inactive
until its SLI first reaches the clear level, so "rate fell to zero"
alerts cannot fire before the measured subsystem has ever been active
(e.g. at the very start of a run, before traffic begins).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Alert states / timeline transition kinds.
STATE_INACTIVE = "inactive"
STATE_PENDING = "pending"
STATE_FIRING = "firing"
TRANSITION_RESOLVED = "resolved"
TRANSITION_CANCELLED = "cancelled"


@dataclass(frozen=True)
class AlertRule:
    """One parsed rule; immutable, hashable, order-preserving."""

    name: str
    sli: str
    op: str
    threshold: float
    for_s: float = 0.0
    clear: Optional[float] = None
    detects: Tuple[str, ...] = ()
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.op not in (">", "<"):
            raise ValueError(f"rule {self.name!r}: op must be '>' or '<'")
        if self.for_s < 0:
            raise ValueError(f"rule {self.name!r}: 'for' must be >= 0")

    @property
    def clear_level(self) -> float:
        return self.threshold if self.clear is None else self.clear

    def breached(self, value: float) -> bool:
        return value > self.threshold if self.op == ">" else value < self.threshold

    def cleared(self, value: float) -> bool:
        level = self.clear_level
        return value <= level if self.op == ">" else value >= level


def _number(token: str, rule: str, key: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"rule {rule!r}: {key} wants a number, got {token!r}")


def parse_rule(line: str) -> AlertRule:
    """Parse one DSL line into an :class:`AlertRule`."""
    head, sep, rest = line.partition(":")
    name = head.strip()
    if not sep or not name:
        raise ValueError(f"alert rule needs 'name: expression': {line!r}")
    tokens = rest.split()
    if len(tokens) < 3:
        raise ValueError(f"rule {name!r} needs '<sli> <op> <threshold>'")
    sli, op = tokens[0], tokens[1]
    if op not in (">", "<"):
        raise ValueError(f"rule {name!r}: unknown operator {op!r}")
    threshold = _number(tokens[2], name, "threshold")
    for_s = 0.0
    clear: Optional[float] = None
    detects: Tuple[str, ...] = ()
    severity = "warning"
    index = 3
    while index < len(tokens):
        key = tokens[index]
        if index + 1 >= len(tokens):
            raise ValueError(f"rule {name!r}: dangling keyword {key!r}")
        value = tokens[index + 1]
        if key == "for":
            for_s = _number(value, name, "for")
        elif key == "clear":
            clear = _number(value, name, "clear")
        elif key == "detects":
            detects = tuple(c for c in value.split(",") if c)
        elif key == "severity":
            severity = value
        else:
            raise ValueError(f"rule {name!r}: unknown keyword {key!r}")
        index += 2
    return AlertRule(name=name, sli=sli, op=op, threshold=threshold,
                     for_s=for_s, clear=clear, detects=detects,
                     severity=severity)


def parse_rules(text: str) -> List[AlertRule]:
    """Parse a rule file: one rule per line, ``#`` comments, blanks ok.
    Duplicate rule names are rejected."""
    rules: List[AlertRule] = []
    seen: set = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rule = parse_rule(line)
        if rule.name in seen:
            raise ValueError(f"duplicate rule name {rule.name!r}")
        seen.add(rule.name)
        rules.append(rule)
    return rules


#: The built-in rules: one per failure shape of the paper's scenario
#: family (flash-crowd/OFA overload §3, overlay-path congestion §5.3,
#: dead vSwitch §5.6, controller outage).  Thresholds assume the SLI
#: catalog of :func:`repro.obs.health.default_slis` and the chaos
#: scenario's traffic scale; `detects` lists every fault class whose
#: telemetry signature legitimately trips the rule, so the scorecard
#: can tell designed coverage from a false positive.
BUILTIN_RULES_TEXT = """\
# OFA overload / flash-crowd onset: Packet-In arrivals (emitted +
# dropped) exceed the weakest OFA's generation capacity.
ofa_overload: ofa.saturation > 0.9 for 0.5 clear 0.6 detects flash_crowd severity critical

# Overlay-path congestion: control-channel messages dying (impairment
# drops + disconnect dead-letters) faster than background noise.
path_congestion: channel.error_rate > 2 for 0.2 clear 0.5 detects channel_loss,channel_flap,partition,vswitch_crash,controller_outage severity warning

# Dead vSwitch: heartbeat echoes going unanswered.
vswitch_dead: heartbeat.miss_rate > 0.5 for 0.2 clear 0.25 detects vswitch_crash,ofa_stall,partition,controller_outage severity critical

# Controller outage: the controller stops receiving the Packet-Ins the
# OFAs are still emitting (ratio of delivered to generated).
controller_outage: controller.delivery_ratio < 0.1 for 0.25 clear 0.5 detects controller_outage severity critical

# Estimator starvation (sampled-telemetry mode only): a sampling
# vSwitch's timer exports stop reaching the flow estimator — the
# vSwitch died, the path partitioned, or the controller went dark.
# Inert under full polling: no staleness gauges exist, the SLI reads 0.
estimator_starved: estimate_staleness > 1.5 for 0.5 clear 0.75 detects vswitch_crash,partition,controller_outage severity warning
"""


def builtin_rules() -> List[AlertRule]:
    """The four built-in failure-shape rules (parsed fresh per call)."""
    return parse_rules(BUILTIN_RULES_TEXT)


#: Controller-pool rules (docs/cluster.md) — kept OUT of
#: :data:`BUILTIN_RULES_TEXT` so single-controller deployments (and
#: their golden alert timelines) never see them; pool scenarios append
#: ``pool_rules()`` explicitly.  SLI catalog:
#: :func:`repro.obs.health.pool_slis`.  Thresholds assume the default
#: pool config (scale-up high-water 4000 pps).
POOL_RULES_TEXT = """\
# A pool member died (or a partition isolated it): its switches'
# Packet-Ins land in the orphan buffer until the leader promotes a new
# master for each.
pool_member_down: pool.orphan_rate > 1 for 0.2 clear 0.5 detects pool_member_crash,pool_partition severity critical

# Pool-wide flash crowd: aggregate Packet-In rate at the pool frontend
# crosses the autoscaler's high-water mark.
pool_flash_crowd: pool.packet_in_rate > 4000 for 0.5 clear 2000 detects flash_crowd severity warning
"""


def pool_rules() -> List[AlertRule]:
    """The controller-pool failure-shape rules (parsed fresh per call)."""
    return parse_rules(POOL_RULES_TEXT)


class AlertState:
    """Runtime state machine of one rule."""

    def __init__(self, rule: AlertRule):
        self.rule = rule
        self.state = STATE_INACTIVE
        #: ``<``-rules arm once the SLI first shows activity (reaches
        #: the clear level); ``>``-rules are armed from the start.
        self.armed = rule.op == ">"
        self.pending_since: Optional[float] = None

    @property
    def firing(self) -> bool:
        return self.state == STATE_FIRING

    def evaluate(self, now: float, value: float) -> List[Dict[str, object]]:
        """Advance one tick; returns the transition records emitted."""
        out: List[Dict[str, object]] = []
        rule = self.rule
        if not self.armed:
            if value >= rule.clear_level:
                self.armed = True
            else:
                return out
        breached = rule.breached(value)
        if self.state == STATE_INACTIVE:
            if breached:
                if rule.for_s > 0:
                    self.state = STATE_PENDING
                    self.pending_since = now
                    out.append(self._record(now, STATE_PENDING, value))
                else:
                    self._fire(now, value, out)
        elif self.state == STATE_PENDING:
            if not breached:
                self.state = STATE_INACTIVE
                self.pending_since = None
                out.append(self._record(now, TRANSITION_CANCELLED, value))
            elif now - self.pending_since >= rule.for_s - 1e-12:
                self._fire(now, value, out)
        elif self.state == STATE_FIRING:
            if rule.cleared(value):
                self.state = STATE_INACTIVE
                out.append(self._record(now, TRANSITION_RESOLVED, value))
        return out

    def _fire(self, now: float, value: float, out: list) -> None:
        self.state = STATE_FIRING
        self.pending_since = None
        out.append(self._record(now, STATE_FIRING, value))

    def _record(self, now: float, state: str, value: float) -> Dict[str, object]:
        return {
            "t": round(now, 9),
            "alert": self.rule.name,
            "state": state,
            "sli": self.rule.sli,
            "value": round(value, 9),
            "severity": self.rule.severity,
        }


def timeline_jsonl(timeline: List[Dict[str, object]]) -> str:
    """Render an alert timeline as JSON lines (stable key order) —
    byte-identical for equal seeds."""
    return "\n".join(
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in timeline
    )
