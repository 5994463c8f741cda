"""Disarmed fault sites must be (near) free on the hot paths.

The injection points ride the dcache insert, the permission-map
allocation, and the decision-cache insert — each behind a single
``if site.armed:`` attribute load, the moral equivalent of a static
branch key. This benchmark measures that guard directly: every
instrumented function is raced against a guard-free clone (the
pre-instrumentation body) on identical workloads, interleaved
best-of-batches, and the disarmed overhead must stay under 5%.

Workloads are insert-heavy on purpose — caches are flushed every
iteration so the guarded lines actually execute. Steady-state hit
paths never reach a guard at all.

Results land in ``BENCH_fault_overhead.json`` at the repo root and
``benchmarks/reports/fault_overhead.txt``.
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.core import System, SystemMode
from repro.kernel.dcache import MAX_CREDS, MAX_ENTRIES, DentryCache
from repro.kernel.security.server import (
    _FASTPATH_UNCACHEABLE_ERRNOS,
    _UNCACHEABLE_ERRNOS,
    CACHE_SIZE,
    SecurityServer,
)

ITERATIONS = max(200, int(4_000 * bench_scale()))
BATCHES = 6
DEPTH = 12
OVERHEAD_BAR_PERCENT = 5.0
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_fault_overhead.json"


# ----------------------------------------------------------------------
# Guard-free clones: the instrumented bodies minus the fault guard.
# ----------------------------------------------------------------------
def _put_unguarded(self, path, follow, entry):
    key = (self.mount_epoch, path, follow)
    self._entries[key] = entry
    self._index.add(path, key)
    if len(self._entries) > MAX_ENTRIES:
        evicted_key, _ = self._entries.popitem(last=False)
        self._index.discard(evicted_key[1], evicted_key)


def _perms_for_unguarded(self, cred_epoch, cred):
    last = self._last_perms
    if (last is not None and last[0] == cred_epoch
            and last[1] is cred):
        return last[2]
    key = (cred_epoch, cred)
    perms = self._perms.get(key)
    if perms is None:
        perms = self._perms[key] = {}
        if len(self._perms) > MAX_CREDS:
            self._perms.popitem(last=False)
    else:
        self._perms.move_to_end(key)
    self._last_perms = (cred_epoch, cred, perms)
    return perms


def _check_unguarded(self, req):
    key = self._key(req)
    if key is not None:
        self.stats.lookups += 1
        hit = self._cache.get(key)
        if hit is not None:
            self.stats.hits += 1
            self._cache.move_to_end(key)
            self._record(req, hit, cached=True)
            return hit
        self.stats.misses += 1
    else:
        self.stats.uncacheable += 1
    decision = self._decide(req)
    cache_ok = (key is not None
                and self.lsm.cache_ok(req.hook, req.task, *req.args))
    if cache_ok:
        if decision.errno not in _FASTPATH_UNCACHEABLE_ERRNOS:
            object.__setattr__(decision, "fastpath_ok", True)
        if decision.errno not in _UNCACHEABLE_ERRNOS:
            self._cache[key] = decision
            self._index.add(key[5], key)
            if len(self._cache) > CACHE_SIZE:
                evicted_key, _ = self._cache.popitem(last=False)
                self._index.discard(evicted_key[5], evicted_key)
    self._record(req, decision, cached=False)
    return decision


_CLONES = (
    (DentryCache, "put", _put_unguarded),
    (DentryCache, "perms_for", _perms_for_unguarded),
    (SecurityServer, "check", _check_unguarded),
)


class _patched:
    """Swap the guard-free clones in for one timed pass."""

    def __enter__(self):
        self._saved = [(cls, name, cls.__dict__[name])
                       for cls, name, _ in _CLONES]
        for cls, name, clone in _CLONES:
            setattr(cls, name, clone)

    def __exit__(self, *exc):
        for cls, name, original in self._saved:
            setattr(cls, name, original)


# ----------------------------------------------------------------------
# Workloads (insert-heavy: flush so the guarded lines run every time)
# ----------------------------------------------------------------------
def _system():
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    # The fused fast path would absorb the warm stats before any
    # guarded insert runs; this benchmark measures the layers below.
    kernel.fastpath.enabled = False
    root = system.root_session()
    path = "/bench"
    kernel.sys_mkdir(root, path)
    for i in range(DEPTH - 2):
        path = f"{path}/d{i}"
        kernel.sys_mkdir(root, path)
    deep_path = f"{path}/file"
    kernel.write_file(root, deep_path, b"x" * 64)
    return kernel, root, deep_path


def _ops(kernel, root, deep_path):
    dcache = kernel.vfs.dcache
    server = kernel.security_server

    def op_dcache_insert():
        dcache.flush()
        kernel.sys_stat(root, deep_path)

    def op_decision_insert():
        server.flush()
        kernel.sys_stat(root, deep_path)

    def op_warm_stat():
        kernel.sys_stat(root, deep_path)

    return {"dcache insert": op_dcache_insert,
            "decision insert": op_decision_insert,
            "warm stat": op_warm_stat}


def _time_pass(op, iterations):
    start = time.perf_counter()
    for _ in range(iterations):
        op()
    return (time.perf_counter() - start) / iterations * 1e6


def _measure(op):
    """Interleaved best-of-batches: guarded (disarmed) vs unguarded."""
    guarded_us, unguarded_us = [], []
    per_pass = max(50, ITERATIONS // BATCHES)
    op()  # warm
    for _ in range(BATCHES):
        guarded_us.append(_time_pass(op, per_pass))
        with _patched():
            unguarded_us.append(_time_pass(op, per_pass))
    return min(guarded_us), min(unguarded_us)


def test_disarmed_fault_sites_are_cheap(write_report):
    kernel, root, deep_path = _system()
    assert not kernel.faults.any_armed
    results = {}
    for name, op in _ops(kernel, root, deep_path).items():
        guarded, unguarded = _measure(op)
        overhead = (guarded - unguarded) / unguarded * 100.0
        results[name] = {
            "guarded_us": round(guarded, 4),
            "unguarded_us": round(unguarded, 4),
            "overhead_percent": round(overhead, 2),
        }

    payload = {
        "benchmark": "fault_overhead",
        "iterations": ITERATIONS,
        "batches": BATCHES,
        "path_depth": DEPTH,
        "bar_percent": OVERHEAD_BAR_PERCENT,
        "ops": results,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"Fault-site guard overhead, sites disarmed "
             f"({ITERATIONS} iterations, depth {DEPTH})",
             f"{'operation':16s} {'guarded':>11s} {'unguarded':>11s} "
             f"{'overhead':>9s}"]
    for name, row in results.items():
        lines.append(f"{name:16s} {row['guarded_us']:>9.3f}us "
                     f"{row['unguarded_us']:>9.3f}us "
                     f"{row['overhead_percent']:>8.2f}%")
    write_report("fault_overhead", lines)

    for name, row in results.items():
        assert row["overhead_percent"] < OVERHEAD_BAR_PERCENT, (
            f"{name}: disarmed guard costs {row['overhead_percent']}% "
            f"(bar {OVERHEAD_BAR_PERCENT}%)")
