"""Elastic multi-controller pool (docs/cluster.md, §beyond-paper).

Scotch's vSwitch overlay removes the data-plane bottleneck; this
package removes the control-plane one: a pool of controller members
with per-switch OpenFlow master/slave roles, deterministic sim-time
leader election, threshold-driven autoscaling and EASM-style load
rebalancing — plus the pool fault classes and invariants that prove
the whole thing heals within bounded windows.
"""

from repro.cluster.bus import PoolBus
from repro.cluster.pool import ControllerPool, PoolMember, pool_grace
from repro.cluster.scenario import (
    PoolDeployment,
    PoolTraffic,
    build_pool_deployment,
    default_pool_plan,
    peak_live_members,
    pool_chaos_config,
    randomized_pool_plan,
)

__all__ = [
    "PoolBus",
    "ControllerPool",
    "PoolMember",
    "pool_grace",
    "PoolDeployment",
    "PoolTraffic",
    "build_pool_deployment",
    "default_pool_plan",
    "peak_live_members",
    "pool_chaos_config",
    "randomized_pool_plan",
]
