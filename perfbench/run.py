"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fleet-day [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each repetition runs in a fresh
interpreter (``perfbench/rep.py``); repetitions repeat until the next
one would end past ``--seconds``. A repetition reports its times at the
reference speed (``perfbench/speed.py``), and each end-to-end metric is
the median over the repetitions. With ``--trace 1`` untraced
and traced repetitions alternate; the result carries the per-layer
metrics and the tracing overhead. The last line of standard output is
the result object; the full record lands in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT))

from perfbench.speed import REFERENCE_NS  # noqa: E402

#: A run still going this long after it started is a failure.
RUN_TIMEOUT_S = 170


class RepFailed(RuntimeError):
    pass


def _commit() -> str:
    """The checkout's commit, read without running git (a benchmark
    checkout need not be a repository)."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    try:
        return (ROOT / ".git" / head[5:]).read_text().strip()
    except OSError:
        return head[5:]


def host_header(args, workers: int) -> dict:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "gc_policy": "on, interpreter default thresholds",
        "reference_ns": REFERENCE_NS,
        "times": "scaled to the reference speed (perfbench/speed.py)",
    }


def spawn(workload: str, seed: int, traced: bool, started: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.rep", workload, str(seed),
         "1" if traced else "0", str(spawned)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, started + RUN_TIMEOUT_S - time.monotonic()))
    if proc.returncode != 0:
        raise RepFailed(f"{workload} repetition exited {proc.returncode}:\n"
                        f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(kinds: tuple, workload: str, seed: int, seconds: float,
           started: float, reps: dict) -> None:
    """Append one repetition of each kind (False: untraced, True:
    traced) in turn to ``reps[kind]``, until the next round would
    likely end past *seconds* (counted from *started*); at least one."""
    rounds = 0
    while True:
        for traced in kinds:
            reps[traced].append(spawn(workload, seed, traced, started))
        rounds += 1
        elapsed = time.monotonic() - started
        if elapsed + elapsed / rounds > seconds:
            return


def end_to_end(rep: dict) -> dict:
    return dict(rep["metrics"], setup_s=rep["setup_s"],
                peak_rss_mb=rep["peak_rss_mb"])


def main(argv=None) -> int:
    from perfbench.metrics import END_TO_END, PER_LAYER, layer_values, \
        pool_detail, row_values
    from perfbench.workloads import DEFAULT_SEEDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    reps: dict = {False: [], True: []}
    try:
        repeat((False, True) if args.trace else (False,), args.workload,
               args.seed, args.seconds, started, reps)
    except (RepFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    plain, traced = reps[False], reps[True]

    every = plain + traced
    attempted = sum(rep["attempted"] for rep in every)
    failed = sum(rep["failed"] for rep in every)
    fingerprints = {rep["fingerprint"] for rep in every}
    if fingerprints != {None}:
        # Replay gate: every repetition of one seed agrees exactly.
        attempted += 1
        failed += len(fingerprints) > 1

    if args.trace:
        layers = [layer_values(rep["ledger"], rep["setup_s"] + rep["work_s"])
                  for rep in traced]
        rows = [row_values(rep["detail"]) for rep in plain]
        metrics = {}
        for name, unit, _better in PER_LAYER:
            source = rows if name.startswith("lmbench.") else layers
            if name != "trace.overhead_pct":
                metrics[name] = {"value": statistics.median(
                    v[name] for v in source), "unit": unit}
        # Each traced repetition against the untraced one just before
        # it, both at the reference speed.
        ratios = [p["metrics"]["throughput_per_s"]
                  / t["metrics"]["throughput_per_s"]
                  for p, t in zip(plain, traced)]
        metrics["trace.overhead_pct"] = {
            "value": (statistics.median(ratios) - 1) * 100, "unit": "%"}
    else:
        values = [end_to_end(rep) for rep in plain]
        metrics = {name: {"value": statistics.median(v[name] for v in values),
                          "unit": unit}
                   for name, unit, _better in END_TO_END}

    # Workload figures come from untraced repetitions only.
    detail = {name: statistics.median(rep["detail"][name] for rep in plain)
              for name, value in plain[0]["detail"].items()
              if isinstance(value, (int, float))}
    if traced:
        detail["pool"] = pool_detail(traced[0]["ledger"])
    record = {
        "header": host_header(args, int(every[0]["detail"].get("workers", 1))),
        "repetitions": len(plain), "traced_repetitions": len(traced),
        "gc": every[0]["gc"],
        "detail": detail,
        "reps": every,
    }
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({key: record[key] for key in
                      ("header", "repetitions", "traced_repetitions", "gc",
                       "detail")}))
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:14.4f} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
