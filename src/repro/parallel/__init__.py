"""repro.parallel — spawn-safe process-pool execution.

Two consumers sit on this layer:

* :mod:`repro.parallel.pool` — :func:`parallel_map`, a deterministic
  chunked fan-out over OS worker processes with ordered merge and a
  serial fallback. The sweep drivers (``scenarios.differ.run_space``,
  ``scenarios.chaos.run_chaos_space``, ``redteam.run_battery``, the
  fault sweep) hand it pure functions of their seeds, so the merged
  result is bit-identical at any worker count.
* :mod:`repro.parallel.fleet` — :func:`run_fleet_parallel`, the
  process-parallel fleet engine: shards are partitioned across
  workers, each worker *rebuilds* its shard group from ``(config,
  seed)`` (kernels are never pickled), runs it through the serial
  engine's own code path, and ships back per-shard
  :class:`~repro.fleet.stats.FleetStats` parts the parent merges in
  shard-id order. See DESIGN.md §15.

The worker count comes from the ``REPRO_WORKERS`` environment knob
(default 1 — fully serial) unless a caller passes ``workers=``
explicitly.
"""

from repro.parallel.pool import (  # noqa: F401
    parallel_map,
    resolve_workers,
    start_method,
)
from repro.parallel.fleet import run_fleet_parallel  # noqa: F401

__all__ = [
    "parallel_map", "resolve_workers", "start_method",
    "run_fleet_parallel",
]
