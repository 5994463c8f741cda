"""repro.fleet — a deterministic session engine over sharded kernels.

Runs thousands of cooperative (generator-scheduled) user sessions
against a pool of independent ``System`` shards and reports fleet-wide
throughput, tail latency, and per-shard cache behaviour. See
DESIGN.md §12.
"""

from repro.fleet.clock import HarnessClock, TickClock
from repro.fleet.engine import (
    FleetConfig,
    FleetEngine,
    GLOBAL,
    PER_SHARD,
    run_fleet,
)
from repro.fleet.sessions import DEFAULT_MIX, SCRIPTS
from repro.fleet.shard import Shard, build_shards
from repro.fleet.stats import FleetStats, LatencyLedger, ShardReport

__all__ = [
    "FleetConfig", "FleetEngine", "FleetStats", "HarnessClock",
    "LatencyLedger", "Shard", "ShardReport", "TickClock",
    "build_shards", "run_fleet", "DEFAULT_MIX", "SCRIPTS",
    "GLOBAL", "PER_SHARD",
]
