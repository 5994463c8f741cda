"""Disarmed fault sites must be (near) free on the hot paths.

The injection points ride the dcache insert, the permission-map
allocation, and the decision-cache insert — each behind a single
``if site.armed:`` attribute load, the moral equivalent of a static
branch key. This benchmark measures that guard directly: every
instrumented function is raced against a guard-free clone (the
pre-instrumentation body) on identical workloads, interleaved
best-of-batches, and the disarmed overhead must stay under 5%. Before
any pass is timed, each op runs once under the originals and once
under the clones, and both runs must return the same value, move the
same ``kernel.avc.*`` and ``kernel.dcache.*`` counters and append the
same audit rows: a clone that drifted from its original fails there
instead of timing different work.

Workloads are insert-heavy on purpose — caches are flushed every
iteration so the guarded lines actually execute. Steady-state hit
paths never reach a guard at all.

Results land in ``BENCH_fault_overhead.json`` at the repo root and
``benchmarks/reports/fault_overhead.txt``.
"""

import dataclasses
import json
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.core import System, SystemMode
from repro.kernel import modes
from repro.kernel.dcache import MAX_CREDS, MAX_ENTRIES, DentryCache
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.security import (
    LAYER_DAC,
    LAYER_DEFAULT,
    OBJ,
    Decision,
    Verdict,
)
from repro.kernel.security.server import (
    _ERRNO_NAMES,
    _FASTPATH_UNCACHEABLE_ERRNOS,
    _PATH_HOOKS,
    _UNCACHEABLE_ERRNOS,
    CACHEABLE_HOOKS,
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
    self._entries.put((follow, path), entry)


def _perms_for_unguarded(self, cred):
    last = self._last_perms
    if last is not None and last[0] is cred:
        perms = last[1]
    else:
        perms = self._perms.get(cred)
        if perms is None:
            perms = self._perms[cred] = {}
            if len(self._perms) > MAX_CREDS:
                self._perms.popitem(last=False)
        else:
            self._perms.move_to_end(cred)
        self._last_perms = (cred, perms)
    if len(perms) > MAX_ENTRIES:
        perms.clear()
    return perms


def _check_unguarded(self, hook, task, obj, args=(), *, mask=0, dac=None,
                     capability=None, fallback=None, deny_errno=Errno.EPERM,
                     context="", layer=LAYER_DEFAULT):
    stats = self.stats
    key = None
    if (self.cache_enabled and hook in CACHEABLE_HOOKS
            and (dac is not None or hook not in _PATH_HOOKS)):
        if task.sid_cred is task.cred and task.sid_exe is task.exe_path:
            sid = task.sid
        else:
            sid = self.generations.subject(task)
        key = (hook, obj, sid, mask)
        stats.lookups += 1
        hit = self._cache.get(key)
        if hit is not None:
            stats.hits += 1
            cred = task.cred
            self.audit.record_fused(self.kernel.clock, task.pid, cred.ruid,
                                    cred.euid, hit.audit_suffix)
            return hit
        stats.misses += 1
    else:
        stats.uncacheable += 1
    value = None
    outcome = None
    if dac is not None:
        layer = LAYER_DAC
        try:
            value = dac()
        except SyscallError as exc:
            outcome = self._deny(hook, LAYER_DAC, exc.errno_value,
                                 exc.context or context)
        args = tuple(value if arg is OBJ else arg for arg in args)
    if outcome is None:
        outcome = self._compose(hook, task, args, capability, fallback,
                                deny_errno, context, layer)
    verdict, layer, errno, context, lsm_module, pending = outcome
    allowed = verdict is Verdict.ALLOW
    verdict_name = "allow" if allowed else "deny"
    errno_name = _ERRNO_NAMES[errno]
    cache_ok = key is not None and self.lsm.cache_ok(hook, task, *args)
    decision = tuple.__new__(Decision, (
        verdict, layer, hook, obj, errno, context, lsm_module, pending,
        value, cache_ok and errno not in _FASTPATH_UNCACHEABLE_ERRNOS,
        allowed, lsm_module is not None,
        (hook, obj, mask, verdict_name, layer, True, errno_name, context)
        if cache_ok else None))
    if cache_ok and errno not in _UNCACHEABLE_ERRNOS:
        self._cache.put(key, decision)
    cred = task.cred
    self.audit.record((
        self.kernel.clock, task.pid, cred.ruid, cred.euid, hook, obj,
        mask, verdict_name, layer, False, errno_name, context))
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
        return kernel.sys_stat(root, deep_path)

    def op_decision_insert():
        # stat consults no security module; access(2) asks the server
        # an inode_permission question, which misses and inserts.
        server.flush()
        return kernel.sys_access(root, deep_path, modes.R_OK)

    def op_warm_stat():
        return kernel.sys_stat(root, deep_path)

    return {"dcache insert": op_dcache_insert,
            "decision insert": op_decision_insert,
            "warm stat": op_warm_stat}


def _observe(kernel, op):
    """One run of *op*: its return value, its ``kernel.avc.*`` and
    ``kernel.dcache.*`` counter deltas, and the audit rows it added
    (without ``seq`` and ``clock``, which advance between runs)."""
    audit = kernel.security_server.audit
    base = kernel.metrics.snapshot()
    seq = audit.seq
    result = op()
    counters = {name: delta
                for name, delta in kernel.metrics.delta(base).items()
                if name.startswith(("kernel.avc.", "kernel.dcache."))}
    rows = [dataclasses.replace(entry, seq=0, clock=0)
            for entry in audit.entries() if entry.seq > seq]
    return result, counters, rows


def _assert_clones_match(kernel, op):
    """The clones stand in for the originals only if they do the same
    work: one run under each must return the same value, move the same
    cache counters and append the same audit rows."""
    op()  # warm
    original = _observe(kernel, op)
    with _patched():
        clone = _observe(kernel, op)
    assert clone == original


def _time_pass(op, iterations):
    start = time.perf_counter()
    for _ in range(iterations):
        op()
    return (time.perf_counter() - start) / iterations * 1e6


def _measure(op):
    """Interleaved best-of-batches: guarded (disarmed) vs unguarded."""
    guarded_us, unguarded_us = [], []
    per_pass = max(50, ITERATIONS // BATCHES)
    # Warm with one untimed pass, not one call: after the clone check
    # ran the clones, a one-call warm-up left the guarded warm-stat
    # pass about 7 points slower than its clone (+5% against -2%, six
    # runs each at scale 0.1 on a 2-core host under Python 3.11),
    # although no guard lies on that path.
    _time_pass(op, per_pass)
    for _ in range(BATCHES):
        guarded_us.append(_time_pass(op, per_pass))
        with _patched():
            unguarded_us.append(_time_pass(op, per_pass))
    return min(guarded_us), min(unguarded_us)


def test_disarmed_fault_sites_are_cheap(write_report):
    kernel, root, deep_path = _system()
    assert not kernel.faults.any_armed
    results = {}
    ops = _ops(kernel, root, deep_path)
    for op in ops.values():
        _assert_clones_match(kernel, op)
    for name, op in ops.items():
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
