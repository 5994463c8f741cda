"""Process-parallel execution benchmark: the same work, more cores.

Two consumers of :mod:`repro.parallel` are timed against their serial
selves, wall clock around the whole call:

* the **fleet engine** — a 16-shard / 5k-session fleet via
  :func:`run_fleet_parallel` at 1 worker (the in-process path) vs
  ``PARALLEL_WORKERS`` processes;
* the **chaos sweep** — a 40-point (scenario x fault-schedule) sweep
  via :func:`run_chaos_space`, serial vs fanned out.

Determinism is asserted at *every* scale and core count: the parallel
fleet's ``comparable()`` — schedule digest and per-shard audit CRCs
included — must equal the serial run's, and the sweep records must be
list-equal. The *speedup* bars (>= 2.5x on the fleet, >= 3x on the
sweep, both at 4 workers) are asserted only at full scale
(``REPRO_BENCH_SCALE >= 1``) on a host with at least
``PARALLEL_WORKERS`` schedulable cores — a 1-core container can prove
bit-identical merges but not wall-clock scaling; the payload records
``cores`` and ``bars_enforced`` so a reader knows which claim this
file is evidence for.

Results land in ``BENCH_parallel.json`` at the repo root (consumed by
``benchmarks/report.py``, which hard-fails if the payload goes
missing) and ``benchmarks/reports/parallel.txt``.
"""

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.fleet.engine import FleetConfig
from repro.parallel.fleet import run_fleet_parallel
from repro.scenarios.chaos import run_chaos_space

SCALE = bench_scale()
FULL_SCALE = SCALE >= 1.0
SEED = 42

PARALLEL_WORKERS = 4
FLEET_SESSIONS = max(40, int(5000 * SCALE))
FLEET_SHARDS = 16
FLEET_SPEEDUP_BAR = 2.5

SWEEP_SCENARIOS = max(2, int(20 * SCALE))
SWEEP_SCHEDULES = 2
SWEEP_SPEEDUP_BAR = 3.0

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:       # non-Linux
        return os.cpu_count() or 1


def _timed(fn):
    start = time.perf_counter_ns()
    result = fn()
    return result, (time.perf_counter_ns() - start) / 1e9


def test_parallel_speedup(write_report):
    cores = _cores()
    bars_enforced = FULL_SCALE and cores >= PARALLEL_WORKERS

    config = FleetConfig(sessions=FLEET_SESSIONS, shards=FLEET_SHARDS,
                         seed=SEED, record_schedule=True)
    serial_stats, serial_s = _timed(
        lambda: run_fleet_parallel(config, workers=1))
    parallel_stats, parallel_s = _timed(
        lambda: run_fleet_parallel(config, workers=PARALLEL_WORKERS))
    fleet_speedup = serial_s / parallel_s if parallel_s else 0.0

    # The determinism half of the contract holds at any scale, on any
    # host: the merged report is bit-identical to the serial one.
    assert parallel_stats.comparable() == serial_stats.comparable()
    assert serial_stats.completed + serial_stats.failed == FLEET_SESSIONS

    serial_records, sweep_serial_s = _timed(
        lambda: run_chaos_space(SEED, range(SWEEP_SCENARIOS),
                                range(SWEEP_SCHEDULES), workers=1))
    parallel_records, sweep_parallel_s = _timed(
        lambda: run_chaos_space(SEED, range(SWEEP_SCENARIOS),
                                range(SWEEP_SCHEDULES),
                                workers=PARALLEL_WORKERS))
    sweep_speedup = sweep_serial_s / sweep_parallel_s \
        if sweep_parallel_s else 0.0
    assert parallel_records == serial_records

    points = SWEEP_SCENARIOS * SWEEP_SCHEDULES
    payload = {
        "benchmark": "parallel",
        "scale": SCALE,
        "seed": SEED,
        "workers": PARALLEL_WORKERS,
        "cores": cores,
        "bars_enforced": bars_enforced,
        "fleet": {
            "sessions": FLEET_SESSIONS,
            "shards": FLEET_SHARDS,
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(fleet_speedup, 2),
            "bar": FLEET_SPEEDUP_BAR,
            "digest_equal": True,
        },
        "sweep": {
            "points": points,
            "serial_s": round(sweep_serial_s, 3),
            "parallel_s": round(sweep_parallel_s, 3),
            "speedup": round(sweep_speedup, 2),
            "bar": SWEEP_SPEEDUP_BAR,
            "records_equal": True,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    write_report("parallel", [
        f"Parallel execution — wall-clock speedup at "
        f"{PARALLEL_WORKERS} workers (seed={SEED}, scale={SCALE}, "
        f"cores={cores}, bars {'ON' if bars_enforced else 'off'})",
        f"fleet  {FLEET_SESSIONS} sessions x {FLEET_SHARDS} shards: "
        f"serial {serial_s:.2f}s, parallel {parallel_s:.2f}s "
        f"-> {fleet_speedup:.2f}x (bar {FLEET_SPEEDUP_BAR}x), "
        f"comparable() bit-identical",
        f"chaos  {points} points: "
        f"serial {sweep_serial_s:.2f}s, parallel {sweep_parallel_s:.2f}s "
        f"-> {sweep_speedup:.2f}x (bar {SWEEP_SPEEDUP_BAR}x), "
        f"records bit-identical",
    ])

    if not bars_enforced:
        return
    assert fleet_speedup >= FLEET_SPEEDUP_BAR, (
        f"fleet speedup {fleet_speedup:.2f}x < {FLEET_SPEEDUP_BAR}x "
        f"at {PARALLEL_WORKERS} workers on {cores} cores")
    assert sweep_speedup >= SWEEP_SPEEDUP_BAR, (
        f"sweep speedup {sweep_speedup:.2f}x < {SWEEP_SPEEDUP_BAR}x "
        f"at {PARALLEL_WORKERS} workers on {cores} cores")
