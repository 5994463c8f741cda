"""One repetition of one workload, in the interpreter this module runs in.

    python3 -m perfbench.rep <workload> <seed> <trace 0|1> <spawn ns>

``perfbench/run.py`` starts a fresh interpreter for every repetition, so
process-global memos start cold as they do for a user's run, and passes
the ``time.monotonic_ns()`` reading taken just before the spawn. Set-up
time runs from that reading until the workload is ready to serve, less
the reference sample taken first thing; it is scaled by that sample and
one taken right after set-up (:mod:`perfbench.speed`).
Prints one JSON object.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

from perfbench.speed import Speed

#: Scratch output (worker chunk ledgers, run records); never committed.
OUT_DIR = Path(__file__).resolve().parent / "out"


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest of its waited-for
    children's (the sweep's pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv) -> int:
    workload, seed, traced, spawned = (argv[0], int(argv[1]), argv[2] == "1",
                                       int(argv[3]))
    speed = Speed()
    speed.sample()
    sampled_ns = speed.spent_ns
    tracer = None
    if traced:
        from perfbench.trace import Tracer
        OUT_DIR.mkdir(exist_ok=True)
        tracer = Tracer(OUT_DIR)
        tracer.install()
    try:
        from perfbench.workloads import WORKLOADS
        run = WORKLOADS[workload](seed)
        ready = time.monotonic_ns()
        speed.sample()
        start = time.monotonic_ns()
        rep = run()
        done = time.monotonic_ns()
    finally:
        if tracer is not None:
            ledger = tracer.collect()
            tracer.uninstall()
    setup_raw = (ready - spawned - sampled_ns) / 1e9
    payload = {
        "setup_s": setup_raw / speed.mean(),
        "setup_raw_s": setup_raw,
        "work_s": (done - start) / 1e9,
        "peak_rss_mb": peak_rss_mb(),
        "gc": {"enabled": gc.isenabled(), "threshold": gc.get_threshold()},
        "metrics": rep.metrics,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "fingerprint": rep.fingerprint,
        "detail": rep.detail,
    }
    if tracer is not None:
        payload["ledger"] = ledger.to_json()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
