"""Decision-cache microbenchmark: the AVC payoff, measured.

Replays repeated stat/open/bind access decisions (iteration count
scaled by ``REPRO_BENCH_SCALE``, 10k at the default 0.5) through the
``SecurityServer`` with the cache enabled and disabled. A hit is a
keyed lookup plus an audit record; a miss re-runs the full pipeline
(DAC walk, LSM chain, capability check). The acceptance bar is a >= 2x
speedup on the hot path, with the numbers written both to the shared
report directory and to ``BENCH_decision_cache.json`` at the repo root
for machine consumption.
"""

import functools
import json
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.core import System, SystemMode
from repro.kernel import modes
from repro.kernel.capabilities import Capability
from repro.kernel.errno import Errno
from repro.kernel.net.socket import AddressFamily, SocketType
from repro.kernel.security import OBJ

ITERATIONS = max(300, int(20_000 * bench_scale()))
BATCHES = 3
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_decision_cache.json"


def _decision_questions(system):
    """One question per benchmarked decision, each asked exactly as the
    corresponding syscall asks it, bound with :func:`functools.partial`
    so replaying it is one call: precisely the repeated-decision
    workload the cache exists for."""
    kernel = system.kernel
    root = system.root_session()
    server = kernel.security_server
    kernel.sys_mkdir(root, "/bench")
    kernel.write_file(root, "/bench/data", b"x" * 64)
    sock = kernel.sys_socket(root, AddressFamily.AF_INET, SocketType.STREAM)

    stat_question = functools.partial(
        server.check, "inode_permission", root, "/bench/data",
        ("/bench/data", OBJ, modes.R_OK), mask=modes.R_OK,
        dac=lambda: kernel.vfs.path_permission(
            root.cred, "/bench/data", modes.R_OK))

    open_question = functools.partial(
        server.check, "file_open", root, "/bench/data",
        ("/bench/data", OBJ, modes.O_RDONLY), mask=modes.R_OK,
        dac=lambda: kernel.vfs.path_permission(
            root.cred, "/bench/data", modes.R_OK),
        deny_errno=Errno.EACCES)

    bind_question = functools.partial(
        server.check, "socket_bind", root, f"port:600/{sock.protocol}",
        (sock, 600), mask=600,
        capability=Capability.CAP_NET_BIND_SERVICE,
        deny_errno=Errno.EACCES)

    return server, {
        "stat": stat_question,
        "open": open_question,
        "bind": bind_question,
    }


def _time_pass(question, iterations):
    """Microseconds per decision over one timed pass."""
    start = time.perf_counter()
    for _ in range(iterations):
        decision = question()
        assert decision.allowed
    return (time.perf_counter() - start) / iterations * 1e6


def _measure(server, question):
    """Best-of-N interleaved passes, cache on vs off, to shrug off
    co-running load the same way the lmbench harness does."""
    on_us, off_us = [], []
    per_pass = ITERATIONS // BATCHES
    for _ in range(BATCHES):
        server.cache_enabled = True
        server.flush(reason="bench pass")
        question()  # warm the single hot entry
        on_us.append(_time_pass(question, per_pass))
        server.cache_enabled = False
        server.flush(reason="bench pass")
        off_us.append(_time_pass(question, per_pass))
    server.cache_enabled = True
    return min(on_us), min(off_us)


def test_decision_cache_speedup(write_report):
    server, questions = _decision_questions(System(SystemMode.PROTEGO))
    results = {}
    for name, question in questions.items():
        on_us, off_us = _measure(server, question)
        results[name] = {
            "cache_on_us": round(on_us, 4),
            "cache_off_us": round(off_us, 4),
            "speedup": round(off_us / on_us, 2),
        }

    payload = {
        "benchmark": "decision_cache",
        "iterations": ITERATIONS,
        "batches": BATCHES,
        "ops": results,
        "mean_speedup": round(
            sum(r["speedup"] for r in results.values()) / len(results), 2),
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["Decision cache — repeated-decision microbenchmark "
             f"({ITERATIONS} iterations)",
             f"{'decision':10s} {'cache on':>12s} {'cache off':>12s} "
             f"{'speedup':>9s}"]
    for name, row in results.items():
        lines.append(f"{name:10s} {row['cache_on_us']:>10.3f}us "
                     f"{row['cache_off_us']:>10.3f}us "
                     f"{row['speedup']:>8.2f}x")
    write_report("decision_cache", lines)

    # The acceptance bar: a cache hit must be at least twice as cheap
    # as re-deriving the decision, for every benchmarked hook.
    for name, row in results.items():
        assert row["speedup"] >= 2.0, (
            f"{name}: {row['speedup']}x < 2x "
            f"({row['cache_on_us']}us vs {row['cache_off_us']}us)")
