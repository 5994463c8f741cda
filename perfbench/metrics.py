"""The benchmark's metric names, units and directions, and the per-layer
metrics derived from a traced run's ledger.

``BENCHMARK.json`` lists the same names; the tests hold the two equal.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from perfbench.workloads import LMBENCH_ROWS

#: (name, unit, better). Every workload reports every one of them; what
#: "op" means is per workload (README.md, "End-to-end metrics").
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("op_tail_us", "us", "lower"),
)

#: Layers timed as calls and self time: every workload crosses each, so
#: no time reads a constant zero. Layers only some workloads cross
#: (the profile DFA, the sweep drivers, the pool) report counts and
#: ratios here; their times are in the run record's ledger.
TIMED_LAYERS = (
    "kernel.syscalls", "kernel.vfs", "kernel.security.server",
    "kernel.lsm.protego", "kernel.lsm.apparmor", "kernel.security.audit",
    "kernel.net", "core.authdb", "userspace", "daemon", "core.build",
)

#: Syscalls reported one by one (the rest only in the layer total).
KEY_SYSCALLS = ("sys_open", "sys_stat", "sys_close", "sys_execve",
                "sys_mount", "sys_setuid")

#: The hooks each LSM module overrides, timed one by one as
#: ``kernel.lsm.<module>.<hook>`` (the tests hold these lists to the
#: classes).
LSM_HOOKS = {
    "protego": ("bprm_check", "file_open", "sb_mount", "sb_umount",
                "socket_create", "socket_bind", "dev_ioctl", "route_add",
                "task_fix_setuid", "task_fix_setgid", "bprm_committing_creds",
                "decision_cacheable"),
    "apparmor": ("bprm_check", "capable", "file_open", "decision_cacheable"),
}

#: Counters read from the layers' stats objects: name -> (numerator,
#: denominator) for ratios, or a plain count.
RATIOS = {
    "kernel.fastpath.hit_ratio": ("kernel.fastpath.hits",
                                  "kernel.fastpath.lookups"),
    "kernel.dcache.hit_ratio": ("kernel.dcache.hits", "kernel.dcache.lookups"),
    "kernel.security.server.avc_hit_ratio": (
        "kernel.security.server.avc_hits",
        "kernel.security.server.avc_lookups"),
    "kernel.net.flow_hit_ratio": ("kernel.net.flow_hits",
                                  "kernel.net.flow_lookups"),
}
COUNTS = (
    "kernel.entry.mask_hits", "kernel.entry.revalidations",
    "kernel.entry.rejections", "kernel.fastpath.stale_evictions",
    "kernel.fastpath.puts", "kernel.security.audit.lost",
    "kernel.pathindex.keys_dropped", "kernel.generations.bump_mount",
    "kernel.generations.bump_policy", "kernel.generations.next_cred_epoch",
)


def row_metric(row: str, mode: str) -> str:
    """``lmbench.<row>.<mode>_us``, the row name cut to name letters."""
    return f"lmbench.{re.sub(r'[^A-Za-z0-9]+', '_', row).strip('_')}.{mode}_us"


def _per_layer() -> List[Tuple[str, str, str]]:
    out = []
    for layer in TIMED_LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.self_ms", "ms", "lower")]
    for call in KEY_SYSCALLS:
        out += [(f"kernel.syscalls.{call}.calls", "count", "lower"),
                (f"kernel.syscalls.{call}.self_ms", "ms", "lower")]
    for module, hooks in LSM_HOOKS.items():
        for hook in hooks:
            out += [(f"kernel.lsm.{module}.{hook}.calls", "count", "lower"),
                    (f"kernel.lsm.{module}.{hook}.self_ms", "ms", "lower")]
    for row in LMBENCH_ROWS:
        out += [(row_metric(row, mode), "us", "lower")
                for mode in ("linux", "protego")]
    out += [(name, "ratio", "higher") for name in RATIOS]
    out += [(name, "count", "lower") for name in COUNTS]
    out += [
        ("apparmor.calls", "count", "lower"),
        ("kernel.pathindex.calls", "count", "lower"),
        ("kernel.generations.invalidate_path.calls", "count", "lower"),
        ("python.gc.gen0", "count", "lower"),
        ("python.gc.gen1", "count", "lower"),
        ("python.gc.gen2", "count", "lower"),
        ("python.gc.pause_ms", "ms", "lower"),
        ("python.gc.pause_frac", "ratio", "lower"),
        ("scenarios.points", "count", "higher"),
        ("redteam.points", "count", "higher"),
        ("parallel.pool.workers", "count", "higher"),
        ("parallel.pool.chunks", "count", "lower"),
        ("parallel.pool.efficiency", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return out


#: (name, unit, better) of every metric the traced run reports.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer())


def layer_values(ledger: dict, wall_s: float) -> Dict[str, float]:
    """Every per-layer metric but ``trace.overhead_pct`` and the
    ``lmbench.*`` rows from one traced repetition's ledger; *wall_s* is
    that repetition's set-up plus work."""
    from perfbench.trace import layer_of

    spans = ledger["spans"]
    counts = ledger["counts"]
    values: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        values[f"{layer}.calls"] = 0
        values[f"{layer}.self_ms"] = 0.0
    for span, (calls, _total, own) in spans.items():
        layer = layer_of(span)
        if layer in TIMED_LAYERS:
            values[f"{layer}.calls"] += calls
            values[f"{layer}.self_ms"] += own / 1e6
    for call in KEY_SYSCALLS:
        calls, _total, own = spans.get(f"kernel.syscalls.{call}", (0, 0, 0))
        values[f"kernel.syscalls.{call}.calls"] = calls
        values[f"kernel.syscalls.{call}.self_ms"] = own / 1e6
    for module, hooks in LSM_HOOKS.items():
        for hook in hooks:
            calls, _total, own = spans.get(f"kernel.lsm.{module}.{hook}",
                                           (0, 0, 0))
            values[f"kernel.lsm.{module}.{hook}.calls"] = calls
            values[f"kernel.lsm.{module}.{hook}.self_ms"] = own / 1e6
    for name, (hits, lookups) in RATIOS.items():
        total = counts.get(lookups, 0)
        values[name] = counts.get(hits, 0) / total if total else 0.0
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    values["apparmor.calls"] = sum(row[0] for span, row in spans.items()
                                   if layer_of(span) == "apparmor")
    values["kernel.pathindex.calls"] = spans.get(
        "kernel.pathindex.collect", (0,))[0]
    values["kernel.generations.invalidate_path.calls"] = spans.get(
        "kernel.generations.invalidate_path", (0,))[0]
    for gen in range(3):
        values[f"python.gc.gen{gen}"] = ledger["gc_collections"][gen]
    values["python.gc.pause_ms"] = ledger["gc_pause_ns"] / 1e6
    values["python.gc.pause_frac"] = ledger["gc_pause_ns"] / 1e9 / wall_s
    values["scenarios.points"] = sum(
        spans.get(name, (0,))[0]
        for name in ("scenarios.differential", "scenarios.chaos"))
    values["redteam.points"] = spans.get("redteam.battery", (0,))[0]
    pool_calls = ledger["pool_calls"]
    capacity = sum((end - start) * workers
                   for start, end, workers in pool_calls)
    busy = sum(end - start for start, end in ledger["chunks"])
    values["parallel.pool.workers"] = max(
        (workers for _s, _e, workers in pool_calls), default=0)
    values["parallel.pool.chunks"] = len(ledger["chunks"])
    values["parallel.pool.efficiency"] = busy / capacity if capacity else 0.0
    values["trace.spans"] = sum(row[0] for row in spans.values())
    return values


def row_values(detail: dict) -> Dict[str, float]:
    """The ``lmbench.*`` metrics from one untraced repetition's detail:
    each row's median op in µs per mode (0 off the lmbench workload)."""
    rows = detail.get("rows", {})
    return {row_metric(row, mode): rows[row][mode]["p50_us"] if row in rows
            else 0.0
            for row in LMBENCH_ROWS for mode in ("linux", "protego")}


def pool_detail(ledger: dict) -> Dict[str, float]:
    """Pool wall, busy and start times (ms), for the sweep's record."""
    calls, chunks = ledger["pool_calls"], ledger["chunks"]
    if not calls or not chunks:
        return {}
    first = min(start for start, _end, _workers in calls)
    return {"wall_ms": sum(end - start for start, end, _w in calls) / 1e6,
            "busy_ms": sum(end - start for start, end in chunks) / 1e6,
            "start_ms": (min(start for start, _end in chunks) - first) / 1e6}
