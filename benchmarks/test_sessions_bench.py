"""Fleet-scale session benchmark: sharded kernels under thousands of
concurrent scripted sessions.

The grid runs the canonical session mix (login → sudo → file I/O →
mount → passwd → network send) at ~100/1k/5k sessions over 1/4/16
shards, legacy vs Protego, plus a fused-fast-path-off ablation at the
largest cell. Per cell it records sessions/sec and p50/p99 session
latency under the harness wall clock (injected ``perf_counter_ns`` —
the engine itself never reads host time).

What the numbers mean: at one shard, 5k live sessions cycle a working
set far past every per-kernel cache, so each operation pays the cold
layered stack; sharding partitions the fleet until each shard's
working set fits, and throughput rises until the shard-independent
session costs (login ceremony, sudo's execves, file creation) cap it.

Acceptance bars (asserted at full scale, ``REPRO_BENCH_SCALE >= 1``):

* Protego sessions/sec scales >= 3x from 1 to 16 shards at 5k
  sessions;
* Protego stays within 25% of legacy throughput at every shard count
  (it is typically *ahead* — the fused verdict table outweighs the
  policy checks legacy doesn't run).

Results land in ``BENCH_sessions.json`` at the repo root (consumed by
``benchmarks/report.py`` and CI) and ``benchmarks/reports/``.
"""

import gc
import json
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.core import SystemMode
from repro.fleet import FleetConfig, FleetEngine, HarnessClock

SCALE = bench_scale()
SESSION_SIZES = tuple(max(10, int(n * SCALE)) for n in (100, 1000, 5000))
SHARD_COUNTS = (1, 4, 16)
SEED = 42
SCALING_BAR = 3.0          # 1 -> 16 shard throughput ratio, largest size
LEGACY_GAP_BAR = 0.25      # Protego within 25% of legacy everywhere
FULL_SCALE = SCALE >= 1.0
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_sessions.json"


def _run_cell(mode, sessions, shards, fastpath=True):
    """One grid cell: build a fleet, run it under the wall clock with
    the collector held off (a gen-2 pass against 16 kernels' object
    graphs would masquerade as scheduler cost), report the stats."""
    config = FleetConfig(sessions=sessions, shards=shards, mode=mode,
                         seed=SEED, fastpath=fastpath)
    engine = FleetEngine(config, clock=HarnessClock(time.perf_counter_ns))
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        stats = engine.run()
    finally:
        if gc_was_enabled:
            gc.enable()
    assert stats.completed + stats.failed == sessions
    return stats


def _cell_record(stats, fastpath=True):
    shard0 = stats.shard_reports[0]
    return {
        "mode": stats.mode,
        "sessions": stats.sessions,
        "shards": stats.shards,
        # Scheduler worker processes. The grid is the serial engine
        # (each shard's group in turn, one process); the multi-worker
        # numbers live in BENCH_parallel.json.
        "workers": 1,
        "fastpath": fastpath,
        "sessions_per_sec": round(stats.sessions_per_sec, 1),
        "session_p50_us": round(stats.session_p50 / 1000, 1),
        "session_p99_us": round(stats.session_p99 / 1000, 1),
        "failed": stats.failed,
        "fastpath_hit_rate": round(shard0.fastpath_hit_rate, 3),
        "dcache_hit_rate": round(shard0.dcache_hit_rate, 3),
    }


def test_fleet_sessions_grid(write_report):
    grid = []
    throughput = {}        # (mode, sessions, shards) -> sessions/sec
    for sessions in SESSION_SIZES:
        for shards in SHARD_COUNTS:
            for mode in (SystemMode.LINUX, SystemMode.PROTEGO):
                stats = _run_cell(mode, sessions, shards)
                grid.append(_cell_record(stats))
                throughput[(mode.value, sessions, shards)] = \
                    stats.sessions_per_sec

    # Ablation: the largest Protego cell with the fused verdict table
    # off — how much of the warm ceiling the fast path buys.
    largest = SESSION_SIZES[-1]
    ablation_stats = _run_cell(SystemMode.PROTEGO, largest,
                               SHARD_COUNTS[-1], fastpath=False)
    ablation = _cell_record(ablation_stats, fastpath=False)

    ratio = (throughput[("protego", largest, SHARD_COUNTS[-1])]
             / throughput[("protego", largest, SHARD_COUNTS[0])])
    payload = {
        "benchmark": "sessions",
        "scale": SCALE,
        "seed": SEED,
        "session_sizes": list(SESSION_SIZES),
        "shard_counts": list(SHARD_COUNTS),
        "grid": grid,
        "ablation": ablation,
        "scaling": {
            "sessions": largest,
            "from_shards": SHARD_COUNTS[0],
            "to_shards": SHARD_COUNTS[-1],
            "protego_ratio": round(ratio, 2),
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"Fleet sessions — sessions/sec and tail latency "
             f"(seed={SEED}, scale={SCALE})",
             f"{'sessions':>8s} {'shards':>6s} {'mode':>8s} "
             f"{'sess/s':>8s} {'p50 (us)':>10s} {'p99 (us)':>10s} "
             f"{'fp hit':>7s}"]
    for row in grid + [ablation]:
        tag = row["mode"] if row["fastpath"] else f"{row['mode']}-nofp"
        lines.append(
            f"{row['sessions']:>8d} {row['shards']:>6d} {tag:>12s} "
            f"{row['sessions_per_sec']:>8.1f} "
            f"{row['session_p50_us']:>10.1f} "
            f"{row['session_p99_us']:>10.1f} "
            f"{row['fastpath_hit_rate']:>7.3f}")
    lines.append(f"protego scaling {SHARD_COUNTS[0]}->{SHARD_COUNTS[-1]} "
                 f"shards at {largest} sessions: {ratio:.2f}x")
    write_report("sessions", lines)

    # No cell may fail sessions, at any scale.
    assert all(row["failed"] == 0 for row in grid + [ablation])

    if not FULL_SCALE:
        return

    # Bar 1: sharding must buy >= 3x at the largest fleet.
    assert ratio >= SCALING_BAR, (
        f"protego 1->16 shard scaling {ratio:.2f}x < {SCALING_BAR}x")
    # Bar 2: Protego within 25% of legacy at every cell of the grid.
    for sessions in SESSION_SIZES:
        for shards in SHARD_COUNTS:
            legacy = throughput[("linux", sessions, shards)]
            protego = throughput[("protego", sessions, shards)]
            assert protego >= (1.0 - LEGACY_GAP_BAR) * legacy, (
                f"{sessions}x{shards}: protego {protego:.1f} sess/s vs "
                f"legacy {legacy:.1f} (> {LEGACY_GAP_BAR:.0%} behind)")
