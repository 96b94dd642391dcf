"""Scotch configuration: every tunable with its paper provenance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# ----------------------------------------------------------------------
# Pipeline layout at Scotch-enabled physical switches
# ----------------------------------------------------------------------
#: Main table (reactive red rules, static tunnel rules, Scotch defaults).
MAIN_TABLE = 0
#: Table where tunnel-decapsulated packets continue at vSwitches.
VSWITCH_FLOW_TABLE = 1
#: Load-balancing table at the physical switch (§5.2: "two flow tables
#: are needed at the physical switch: the first ... sets the ingress
#: port; the second ... load balancing").
LB_TABLE = 2

# ----------------------------------------------------------------------
# Rule priorities (paper Fig. 8: red physical rules beat green overlay
# rules; static tunnel label-switching beats everything reactive).
# ----------------------------------------------------------------------
PRIORITY_PHYSICAL_FLOW = 100  # red per-flow rules
PRIORITY_OVERLAY_PIN = 20  # §5.5 withdrawal: keep residual flows on overlay
PRIORITY_SCOTCH_DEFAULT = 10  # green shared default-to-overlay rules
PRIORITY_LB = 1

#: Group id used for the Scotch select group at each physical switch.
SCOTCH_GROUP_ID = 1

# ----------------------------------------------------------------------
# Fixed constants of the control loop (no experiment varies them)
# ----------------------------------------------------------------------
#: TABLE_FULL error rate (errors/second) that also activates the
#: overlay — §3.3: "the solution proposed in this paper is applicable to
#: the TCAM bottleneck scenario as well".
TABLE_FULL_RATE_THRESHOLD = 10.0
#: Divert a flow to the overlay (instead of installing rules) when any
#: path switch's *estimated* flow-table occupancy exceeds this fraction
#: of its TCAM capacity.  The controller predicts occupancy from its own
#: install history and rule timeouts, avoiding the install-fail/blackhole
#: cycle entirely.
TCAM_HEADROOM_FRACTION = 0.85
#: Flow-stats polling interval toward vSwitches, seconds (§5.3).
STATS_INTERVAL = 1.0
#: Idle timeout for reactive per-flow rules (§6.1: "distinct rules with
#: a 10 s timeout").
FLOW_IDLE_TIMEOUT = 10.0
#: A flow counts as "currently on the overlay" for §5.5 pinning if a
#: stats dump reported its rule this recently (seconds).
PIN_ACTIVITY_WINDOW = 3.0
#: Re-send the activation rule set this many times (the activation
#: FlowMods themselves cross the congested OFA; re-sends are idempotent
#: and make activation robust to its insertion loss).
ACTIVATION_RESENDS = 2
#: Spacing between activation re-sends, seconds.
ACTIVATION_RESEND_GAP = 0.05

# -- congestion detection (§4.2, §5.5) ----------------------------------
#: Activate the overlay when a switch's observed new-flow (Packet-In)
#: rate reaches this fraction of its OFA Packet-In capacity.
ACTIVATE_FRACTION = 0.8
#: Withdraw when the new-flow rate falls below this fraction ...
WITHDRAW_FRACTION = 0.6
#: ... and stays there for this long, seconds (avoids flapping).
WITHDRAW_HOLD = 3.0
#: Congestion-monitor evaluation period, seconds.
MONITOR_INTERVAL = 0.25

# -- sampled telemetry (docs/observability.md, "Sampled telemetry") -----
#: How often each sampling vSwitch exports its accumulated sample
#: records to the controller, seconds.
SAMPLE_EXPORT_INTERVAL = 0.25
#: In ``hybrid`` stats mode, full polls run this many times slower than
#: ``STATS_INTERVAL``.
HYBRID_POLL_MULTIPLIER = 5.0

# -- large-flow migration (§5.3) ----------------------------------------
#: Skip migrating onto switches whose pending install backlog exceeds
#: this ("checks the message rate of all switches on the path to make
#: sure their control plane is not overloaded").
MIGRATION_BACKLOG_LIMIT = 50

# -- rule lifetimes -------------------------------------------------------
#: Idle timeout for §5.5 pin rules keeping residual flows on the overlay.
PIN_IDLE_TIMEOUT = 10.0

# -- controller pool (docs/cluster.md) ------------------------------------
#: Migrate a switch when the busiest member carries more than this
#: multiple of the idlest member's Packet-In load.
POOL_IMBALANCE_RATIO = 2.0


@dataclass
class ScotchConfig:
    """Tunables of the Scotch controller application."""

    # -- controller install budget (Fig. 7, §5.2, §6.1) --------------------
    #: Per-switch rule install rate R.  None = the switch profile's
    #: lossless insertion rate, the paper's recommendation ("the maximum
    #: rate at which the OpenFlow controller can install rules at the
    #: physical switch without insertion failure").
    install_rate: Optional[float] = None
    #: Ingress-port queue length beyond which new flows are routed over
    #: the overlay instead of the physical network.
    overlay_threshold: int = 10
    #: Queue length beyond which Packet-Ins are simply dropped.
    drop_threshold: int = 200
    #: Rate at which queued flows beyond the overlay threshold are set up
    #: on the overlay, per switch (vSwitch rule installs are cheap; this
    #: bounds controller-side work per congested switch).
    overlay_install_rate: float = 5000.0

    # -- large-flow migration (§5.3) ----------------------------------------
    #: Packet count at which an overlay flow is declared an elephant.
    elephant_packet_threshold: int = 200

    # -- sampled telemetry (docs/observability.md, "Sampled telemetry") -----
    #: How the controller measures per-flow counters at the vSwitches.
    #: ``poll``   — the paper's §5.3 loop: full flow-stats dumps every
    #:              ``STATS_INTERVAL`` (the default; bit-identical to the
    #:              pre-telemetry behaviour).
    #: ``sample`` — NetFlow-style 1-in-N packet sampling at each mesh
    #:              vSwitch; the controller scales samples into per-flow
    #:              estimates and feeds them down the same stats path.
    #: ``hybrid`` — sampling plus a slow full poll (every
    #:              ``STATS_INTERVAL * HYBRID_POLL_MULTIPLIER``) to
    #:              true-up the estimates.
    #: ``off``    — no flow measurement at all (baseline for the
    #:              monitoring-overhead benchmark).
    stats_mode: str = "poll"
    #: Sample 1 packet in this many (the NetFlow/sFlow sampling period N).
    sampling_period: int = 10

    # -- load balancing / overlay shape (§5.1) -------------------------------
    #: How many mesh vSwitches each congested switch spreads over.
    vswitches_per_switch: int = 2

    # -- failure detection (§5.6) -------------------------------------------
    heartbeat_interval: float = 1.0
    #: Declare a vSwitch dead after this many missed heartbeats.
    heartbeat_miss_limit: int = 3

    # -- reliable installs (docs/robustness.md) ------------------------------
    # Critical control state (activation rule sets, failover group
    # refreshes) is sent Barrier-acknowledged with timeout + retries, so
    # it survives control-channel loss, flaps and vSwitch restarts.
    #: Initial barrier-acknowledgement timeout, seconds (doubles per
    #: attempt — capped exponential backoff).
    reliable_install_timeout: float = 0.3
    #: Ceiling on the per-attempt timeout, seconds.
    reliable_install_timeout_cap: float = 2.0
    #: Re-send budget per batch; beyond this the batch is abandoned (and
    #: counted — the invariant checker asserts the counter stays sane).
    reliable_install_max_retries: int = 5

    # -- controller pool (docs/cluster.md, §beyond-paper) --------------------
    #: Number of controller-pool members.  1 (the default) builds no
    #: pool at all — the single-controller deployment is untouched and
    #: stays bit-identical to the pre-pool seed.
    controllers: int = 1
    #: Autoscaling floor / ceiling on live pool members.
    pool_min_controllers: int = 1
    pool_max_controllers: int = 4
    #: Leader lease: the leader broadcasts a beat this often ...
    pool_lease_interval: float = 0.5
    #: ... and a member that hears nothing for this long starts an
    #: election (candidacy with term + 1).
    pool_lease_timeout: float = 2.0
    #: A candidate that hears no higher-precedence claim for this long
    #: assumes leadership.
    pool_election_timeout: float = 1.0
    #: Pool bus one-way delivery delay, seconds (member-to-member
    #: election and coordination traffic).
    pool_bus_delay: float = 0.01
    #: Scale up when pool-wide Packet-In PPS stays above this ...
    pool_scale_up_pps: float = 4000.0
    #: ... for this long (hysteresis hold, seconds).
    pool_scale_up_hold: float = 1.0
    #: Scale down when pool-wide PPS stays below this for
    #: ``pool_scale_cooldown`` seconds.
    pool_scale_down_pps: float = 500.0
    pool_scale_cooldown: float = 5.0
    #: Minimum spacing between any two scale actions (warmup guard:
    #: a freshly spawned member must see traffic before the next
    #: decision).
    pool_warmup: float = 2.0
    #: Load-rebalance evaluation period, seconds.
    pool_rebalance_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.overlay_threshold >= self.drop_threshold:
            raise ValueError("overlay_threshold must be below drop_threshold")
        if self.install_rate is not None and self.install_rate <= 0:
            raise ValueError("install_rate must be positive")
        if self.overlay_install_rate <= 0:
            raise ValueError("overlay_install_rate must be positive")
        if self.vswitches_per_switch < 1:
            raise ValueError("need at least one vSwitch per switch")
        if self.reliable_install_timeout <= 0:
            raise ValueError("reliable_install_timeout must be positive")
        if self.reliable_install_timeout_cap < self.reliable_install_timeout:
            raise ValueError("reliable_install_timeout_cap must be >= the timeout")
        if self.reliable_install_max_retries < 0:
            raise ValueError("reliable_install_max_retries must be non-negative")
        if self.stats_mode not in ("poll", "sample", "hybrid", "off"):
            raise ValueError(f"unknown stats mode {self.stats_mode!r}")
        if self.sampling_period < 1:
            raise ValueError("sampling_period must be >= 1")
        if self.controllers < 1:
            raise ValueError("controllers must be >= 1")
        if not 1 <= self.pool_min_controllers <= self.pool_max_controllers:
            raise ValueError("need 1 <= pool_min_controllers <= pool_max_controllers")
        if self.pool_lease_interval <= 0 or self.pool_election_timeout <= 0:
            raise ValueError("pool lease interval and election timeout must be positive")
        if self.pool_lease_timeout <= self.pool_lease_interval:
            raise ValueError("pool_lease_timeout must exceed pool_lease_interval")
        if self.pool_bus_delay < 0:
            raise ValueError("pool_bus_delay must be non-negative")
        if self.pool_scale_down_pps >= self.pool_scale_up_pps:
            raise ValueError("pool_scale_down_pps must be below pool_scale_up_pps")
        if self.pool_scale_up_hold < 0 or self.pool_scale_cooldown < 0:
            raise ValueError("pool scale hold/cooldown must be non-negative")
        if self.pool_warmup < 0:
            raise ValueError("pool_warmup must be non-negative")
        if self.pool_rebalance_interval <= 0:
            raise ValueError("pool_rebalance_interval must be positive")
