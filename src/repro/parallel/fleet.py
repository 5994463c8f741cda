"""The process-parallel fleet engine.

:func:`run_fleet_parallel` runs a fleet across OS worker processes:
shard ids are striped over the workers, each worker *rebuilds* its
shard slice from ``(config, seed)`` — kernels are never pickled —
runs it through :func:`~repro.fleet.engine.run_shards`, the function
behind the serial ``FleetEngine.run_parts``, and ships back one
single-shard :class:`~repro.fleet.stats.FleetStats` part per shard
(counters, ledgers, audit/schedule CRCs — all plain picklable data).
The parent folds every part with :meth:`FleetStats.merge`, which sorts
by shard id, so the merged report's ``comparable()`` is bit-identical
to a serial ``FleetEngine(config).run()`` — whatever the worker count,
however the stripes interleaved. That serial per-shard fold is the
reference this engine is tested against.

Why rebuilding is sound: shard construction is a pure function of
``(config, shard index)`` (pinned by the worker-rebuild equivalence
test), each shard's round-robin schedule depends only on its own
sessions, and session admission is partition-stable — a worker holding
a subset of the shards admits exactly the sessions the full fleet
would place on them. Module-level provisioning memos (password hashes, policy
builds) re-warm per worker; they affect construction *cost*, never
construction *result*.

Latency ledgers travel whole (bounded reservoirs, a few KiB each), so
merged percentiles equal the serial run's — the tick ledger is
interleaving distance within a shard's own group either way.

Not supported: roster/``system_factory`` fleets (workers can only
rebuild what the config fully describes; generated-scenario fleets
parallelize one level up, via ``parallel_map`` over whole scenarios).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.fleet.clock import TickClock
from repro.fleet.engine import FleetConfig, Tally, run_shards
from repro.fleet.shard import build_shards
from repro.fleet.stats import FleetStats
from repro.parallel.pool import parallel_map, resolve_workers


def _check_config(config: FleetConfig) -> None:
    if config.roster is not None:
        raise ValueError(
            "run_fleet_parallel cannot rebuild roster fleets in worker "
            "processes; run generated-scenario fleets serially (or "
            "parallelize over scenarios with parallel_map)")


def run_fleet_slice(task: Tuple[FleetConfig, Tuple[int, ...]]) \
        -> List[FleetStats]:
    """One worker's job: rebuild a slice of the fleet's shards and run
    their session groups. Module-level (spawn needs to import it by
    name) and a pure function of its task — the parts it returns are
    byte-identical wherever it runs.
    """
    config, indices = task
    shards = build_shards(config.mode, config.shards,
                          tenants=config.tenant_names,
                          fastpath=config.fastpath, indices=indices)
    return run_shards(config, shards, TickClock(), Tally())


def run_fleet_parallel(config: FleetConfig,
                       workers: Optional[int] = None) -> FleetStats:
    """Run *config* across worker processes and merge the parts.

    Shard ids are striped (``indices[w::workers]``) so neighbouring —
    typically similarly-loaded — shards land on different workers.
    Each stripe is one pool task (``chunk_size=1``: the slice *is* the
    unit of work; re-chunking stripes would serialize them). With one
    worker (or one shard, or no usable start method) ``parallel_map``
    degrades to running every slice in-process — still through the
    identical rebuild-and-merge path.
    """
    _check_config(config)
    workers = resolve_workers(workers)
    stripes = max(1, min(workers, config.shards))
    indices = list(range(config.shards))
    tasks = [(config, tuple(indices[stripe::stripes]))
             for stripe in range(stripes)]
    slices = parallel_map(run_fleet_slice, tasks, workers=workers,
                          chunk_size=1)
    return FleetStats.merge(
        [part for parts in slices for part in parts])


__all__ = ["run_fleet_parallel", "run_fleet_slice"]
