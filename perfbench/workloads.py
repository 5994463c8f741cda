"""The three workloads, one repetition each.

Each ``prepare_*(seed)`` does the set-up a user pays before the first
request (imports, system boot) and returns a zero-argument callable that
runs the measured work and returns a :class:`Rep`. The sizes below are
the benchmark's; the tests pass smaller ones.

Between slices of work each workload samples the reference loop
(:mod:`perfbench.speed`), leaves the sample out of every time it
measures, and reports its times scaled by the slowdown sampled around
each slice. Raw figures go into ``Rep.detail``.

Every ``repro`` entry point is reached through its module attribute at
call time, so a traced process sees the tracer's wrappers.
"""

from __future__ import annotations

import array
import dataclasses
import math
import os
import random
import time
import traceback
import zlib
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from perfbench.speed import Speed

#: 250 sessions a shard, far below the one-shard cache cliff. A
#: repetition takes a few seconds, so a run holds about ten of them.
FLEET_SESSIONS = 1000
FLEET_SHARDS = 4
#: Scheduler steps between reference samples (about 30 ms of work).
FLEET_SAMPLE_STEPS = 2000

#: Table 5 rows whose syscalls cross Protego's hooks or write the namespace.
LMBENCH_ROWS = ("stat", "open/close", "mount/umnt", "setuid", "setgid",
                "ioctl", "bind", "fork+execve", "0KB create", "0KB delete",
                "Local UDP lat", "Rem. UDP lat")
#: Passes over every row; each pass times one batch per mode per row.
LMBENCH_ROUNDS = 6
#: Op time between reference samples, and at every batch's end.
LMBENCH_SAMPLE_NS = 20_000_000

SWEEP_DIFFERENTIAL = 40
SWEEP_CHAOS_SCENARIOS = 10
SWEEP_CHAOS_SCHEDULES = 4
SWEEP_BATTERY = 40

#: Pinned seeds, used when ``--seed`` is not given.
DEFAULT_SEEDS = {"fleet-day": 42, "lmbench-hooked": 1, "scenario-sweep": 7}


@dataclasses.dataclass
class Rep:
    """What one repetition measured."""

    #: throughput_per_s, op_p50_us and op_tail_us, at the reference speed
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Equal for every repetition of one seed (None: no replay contract).
    fingerprint: Optional[int]
    detail: Dict[str, object]


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return ordered[max(0, min(len(ordered) - 1, int(fraction * len(ordered))))]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def host_workers() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0))


# -- fleet-day ---------------------------------------------------------------
def prepare_fleet(seed: int, sessions: int = FLEET_SESSIONS,
                  shards: int = FLEET_SHARDS) -> Callable[[], Rep]:
    from repro.fleet import FleetConfig, FleetEngine, HarnessClock

    speed = Speed()

    class StepClock(HarnessClock):
        """The engine's harness clock. It keeps every step's ns, samples
        the reference every ``FLEET_SAMPLE_STEPS`` steps, and leaves the
        sampling out of every reading."""

        def __init__(self) -> None:
            super().__init__(self.read)
            self.steps = array.array("q")
            #: step index and reading at each sample
            self.cuts: List[int] = []
            self.stamps: List[int] = []
            self._last = 0

        @staticmethod
        def read() -> int:
            return time.perf_counter_ns() - speed.spent_ns

        def cut(self) -> None:
            speed.sample()
            self.cuts.append(len(self.steps))
            self.stamps.append(self.read())

        def now(self) -> int:
            self._last = stamp = self.read()
            return stamp

        def advance(self) -> int:
            self.ticks += 1
            stamp = self.read()
            self.steps.append(stamp - self._last)
            if len(self.steps) % FLEET_SAMPLE_STEPS == 0:
                self.cut()
            return stamp

    clock = StepClock()
    engine = FleetEngine(FleetConfig(sessions=sessions, shards=shards,
                                     seed=seed), clock=clock)

    def run() -> Rep:
        clock.cut()
        stats = engine.run()
        clock.cut()
        # Slice j runs from sample j to sample j + 1.
        cuts = clock.cuts
        steps: List[float] = []
        elapsed = 0.0
        for j in range(len(cuts) - 1):
            factor = (speed.samples[j] + speed.samples[j + 1]) / 2
            steps += [step / factor
                      for step in clock.steps[cuts[j]:cuts[j + 1]]]
            elapsed += (clock.stamps[j + 1] - clock.stamps[j]) / factor
        steps.sort()
        accounted = stats.completed + stats.failed == sessions
        login = stats.op_latency.get("login", (0.0, 0.0, 0.0))
        sudo = stats.op_latency.get("sudo", (0.0, 0.0, 0.0))
        reports = stats.shard_reports
        return Rep(
            metrics={"throughput_per_s": stats.completed / (elapsed / 1e9),
                     "op_p50_us": percentile(steps, 0.50) / 1e3,
                     "op_tail_us": percentile(steps, 0.99) / 1e3},
            # Every session, plus the completed + failed == sessions gate.
            attempted=sessions + 1,
            failed=stats.failed + (0 if accounted else 1),
            fingerprint=zlib.crc32(repr(stats.comparable()).encode()),
            detail={"sessions_per_s": stats.sessions_per_sec,
                    "steps": len(steps),
                    "login_p50_us": login[0] / 1e3,
                    "login_p99_us": login[2] / 1e3,
                    "sudo_p50_us": sudo[0] / 1e3,
                    "fastpath_hit_rate": sum(r.fastpath_hit_rate
                                             for r in reports) / len(reports),
                    "session_p50_us": stats.session_p50 / 1e3,
                    "slowdown": speed.mean()},
        )
    return run


# -- lmbench-hooked ----------------------------------------------------------
def prepare_lmbench(seed: int, rounds: int = LMBENCH_ROUNDS,
                    rows: Sequence[str] = LMBENCH_ROWS) -> Callable[[], Rep]:
    from repro.core import build
    from repro.workloads import lmbench

    table = []
    for name in rows:
        factory, iterations = lmbench.LMBENCH_TESTS[name]
        linux, protego = build.build_pair()
        table.append((name, iterations,
                      {"linux": factory(linux), "protego": factory(protego)}))
    rng = random.Random(seed)
    speed = Speed()

    def run() -> Rep:
        clock = time.perf_counter_ns
        samples = {(name, mode): array.array("d")
                   for name in rows for mode in ("linux", "protego")}
        attempted = failed = 0
        errors: List[str] = []
        before = speed.sample()

        def flush(out, pending):
            # Scale the ops since the last sample by the slowdown
            # sampled on either side of them.
            nonlocal before
            after = speed.sample()
            factor = (before + after) / 2
            out.extend(value / factor for value in pending)
            before = after
            del pending[:]

        for _ in range(rounds):
            order = list(table)
            rng.shuffle(order)
            for name, iterations, ops in order:
                modes = ["linux", "protego"]
                rng.shuffle(modes)
                for mode in modes:
                    op, out = ops[mode], samples[(name, mode)]
                    pending = array.array("q")
                    attempted += iterations
                    due = clock() + LMBENCH_SAMPLE_NS
                    for _ in range(iterations):
                        start = clock()
                        try:
                            op()
                        except Exception:
                            # Counted and reported; the batch goes on.
                            failed += 1
                            if len(errors) < 3:
                                errors.append(traceback.format_exc())
                            continue
                        end = clock()
                        pending.append(end - start)
                        if end > due:
                            flush(out, pending)
                            due = clock() + LMBENCH_SAMPLE_NS
                    flush(out, pending)

        per_row = {}
        for (name, mode), values in samples.items():
            ordered = sorted(values) or [0]
            per_row.setdefault(name, {})[mode] = {
                "p50_us": percentile(ordered, 0.50) / 1e3,
                "p99_us": percentile(ordered, 0.99) / 1e3,
                "ops": len(values), "total_ns": sum(values)}
        protego = [per_row[name]["protego"] for name in rows]
        linux = [per_row[name]["linux"] for name in rows]
        p50 = geomean([row["p50_us"] for row in protego])
        linux_p50 = geomean([row["p50_us"] for row in linux])
        return Rep(
            metrics={"throughput_per_s": sum(r["ops"] for r in protego) * 1e9
                     / sum(r["total_ns"] for r in protego),
                     "op_p50_us": p50,
                     "op_tail_us": geomean([r["p99_us"] for r in protego])},
            attempted=attempted, failed=failed, fingerprint=None,
            detail={"syscall_geomean_us": p50,
                    "linux_syscall_geomean_us": linux_p50,
                    "protego_overhead_pct": (p50 / linux_p50 - 1) * 100,
                    "overhead_base": "linux_syscall_geomean_us",
                    "rows": per_row, "errors": errors,
                    "slowdown": speed.mean()},
        )
    return run


# -- scenario-sweep ----------------------------------------------------------
def _sweep_point(speed: Speed, key) -> dict:
    """One sweep point in a pool worker: its outcome, wall ns, and the
    slowdown sampled on either side of it."""
    kind, seed, scenario_id, schedule_id = key
    spent = speed.spent_ns
    before = speed.sample()
    start = time.perf_counter_ns()
    try:
        outcome = _run_point(kind, seed, scenario_id, schedule_id)
    except Exception:
        # A point that raises is a failed point, not a failed sweep.
        outcome = {"bad": 1, "successes": 0, "blocked": 0,
                   "digest": 0, "error": traceback.format_exc(limit=-3)}
    ns = time.perf_counter_ns() - start
    slowdown = (before + speed.sample()) / 2
    outcome.update(kind=kind, ns=ns, slowdown=slowdown,
                   sample_ns=speed.spent_ns - spent)
    return outcome


def _run_point(kind: str, seed: int, scenario_id: int,
               schedule_id: int) -> dict:
    from repro.redteam import battery
    from repro.scenarios import chaos, differ, generator

    successes = blocked = 0
    if kind == "differential":
        report = differ.run_differential(
            generator.generate_scenario(seed, scenario_id))
        bad = len(report.unclassified)
        record = (report.steps, report.matched,
                  [repr(d) for d in report.classified + report.unclassified])
    elif kind == "chaos":
        record = chaos.run_chaos_point(seed, scenario_id, schedule_id)
        bad = len(record["violations"])
    else:
        record = battery.run_scenario_battery(seed, scenario_id)
        bad = len(record["violations"])
        for row in record["techniques"]:
            if row["applicable"] and row["legacy"]["outcome"] == "success":
                successes += 1
                blocked += row["protego"]["outcome"] == "blocked"
    return {"bad": bad, "successes": successes, "blocked": blocked,
            "digest": zlib.crc32(repr(record).encode())}


def sweep_keys(seed: int, differential: int = SWEEP_DIFFERENTIAL,
               chaos: int = SWEEP_CHAOS_SCENARIOS,
               schedules: int = SWEEP_CHAOS_SCHEDULES,
               battery: int = SWEEP_BATTERY) -> List[tuple]:
    return ([("differential", seed, i, 0) for i in range(differential)]
            + [("chaos", seed, i, s) for i in range(chaos)
               for s in range(schedules)]
            + [("battery", seed, i, 0) for i in range(battery)])


def prepare_sweep(seed: int, workers: Optional[int] = None,
                  **sizes) -> Callable[[], Rep]:
    """*workers* defaults to the host's cores; on one core the pool
    runs serially and its layer reads zero (``pool_used`` says so)."""
    from repro.parallel import pool

    keys = sweep_keys(seed, **sizes)
    schedules = sizes.get("schedules", SWEEP_CHAOS_SCHEDULES)
    count = workers or host_workers()

    def run() -> Rep:
        start = time.perf_counter_ns()
        # One chunk per chaos scenario's schedule block, as
        # run_chaos_space pins it, so its oracle memo amortizes.
        points = pool.parallel_map(partial(_sweep_point, Speed()), keys,
                                   workers=count,
                                   chunk_size=schedules)
        wall = (time.perf_counter_ns() - start) / 1e9
        latencies = sorted(p["ns"] / p["slowdown"] for p in points)
        # The pool's wall without the workers' sampling, over the
        # points' slowdown weighted by their time.
        slowdown = sum(p["ns"] for p in points) / sum(latencies)
        scaled_wall = (wall - sum(p["sample_ns"] for p in points) / 1e9
                       / min(count, len(points))) / slowdown
        successes = sum(p["successes"] for p in points)
        blocked = sum(p["blocked"] for p in points)
        block_rate = blocked / successes if successes else 1.0
        bad = {kind: sum(p["bad"] for p in points if p["kind"] == kind)
               for kind in ("differential", "chaos", "battery")}
        digest = 0
        for point in points:
            digest = zlib.crc32(f"{point['digest']};".encode(), digest)
        return Rep(
            metrics={"throughput_per_s": len(points) / scaled_wall,
                     "op_p50_us": percentile(latencies, 0.50) / 1e3,
                     "op_tail_us": percentile(latencies, 0.90) / 1e3},
            # Every point, plus the battery's block_rate == 1.0 gate.
            attempted=len(points) + 1,
            failed=sum(1 for p in points if p["bad"])
            + (0 if block_rate == 1.0 else 1),
            fingerprint=digest,
            detail={"points_per_s": len(points) / wall, "workers": count,
                    "pool_used": count > 1,
                    "errors": [p["error"] for p in points if "error" in p][:3],
                    "unclassified_divergences": bad["differential"],
                    "chaos_violations": bad["chaos"],
                    "battery_violations": bad["battery"],
                    "battery_block_rate": block_rate,
                    "legacy_successes": successes,
                    "slowdown": slowdown},
        )
    return run


WORKLOADS: Dict[str, Callable[[int], Callable[[], Rep]]] = {
    "fleet-day": prepare_fleet,
    "lmbench-hooked": prepare_lmbench,
    "scenario-sweep": prepare_sweep,
}
