"""The benchmark's own checks, at reduced scale.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import metrics, trace, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _small_runs():
    """One reduced-scale repetition of each workload."""
    return {
        "fleet-day": workloads.prepare_fleet(3, sessions=40, shards=2)(),
        "lmbench-hooked": workloads.prepare_lmbench(
            3, rounds=1, rows=("stat", "setuid", "0KB delete"))(),
        # Two workers even on a one-core host, so the pool layer runs.
        "scenario-sweep": workloads.prepare_sweep(
            3, workers=2, differential=2, chaos=1, schedules=2, battery=2)(),
    }


def test_metric_names_and_units_are_well_formed():
    for name, unit, better in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit
        assert better in ("higher", "lower")
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] \
            == list(table)
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS)


def test_reduced_scale_smoke_run_completes_without_failures():
    first = _small_runs()
    for name, rep in first.items():
        assert rep.failed == 0, (name, rep.detail)
        assert set(rep.metrics) == {"throughput_per_s", "op_p50_us",
                                    "op_tail_us"}
        assert all(value > 0 for value in rep.metrics.values()), name
    # Same seed, same record: the replay gate the full run counts.
    again = workloads.prepare_fleet(3, sessions=40, shards=2)()
    assert again.fingerprint == first["fleet-day"].fingerprint
    other = workloads.prepare_fleet(4, sessions=40, shards=2)()
    assert other.failed == 0 and set(other.metrics) == set(again.metrics)


def test_traced_run_removes_every_wrapper(tmp_path):
    from repro.kernel.syscalls import SyscallMixin
    from repro.parallel import pool

    assert trace.leftover_wrappers() == []
    open_before = SyscallMixin.sys_open
    map_before = pool.parallel_map
    tracer = trace.Tracer(tmp_path)
    tracer.install()
    try:
        assert SyscallMixin.sys_open is not open_before
        runs = _small_runs()
    finally:
        ledger = tracer.collect()
        tracer.uninstall()
    assert trace.leftover_wrappers() == []
    assert SyscallMixin.sys_open is open_before
    assert pool.parallel_map is map_before
    assert list(tmp_path.iterdir()) == []

    values = metrics.layer_values(ledger.to_json(), wall_s=1.0)
    rows = metrics.row_values(runs["lmbench-hooked"].detail)
    assert set(values) | set(rows) | {"trace.overhead_pct"} \
        == {m[0] for m in metrics.PER_LAYER}
    assert rows[metrics.row_metric("stat", "protego")] > 0
    assert rows[metrics.row_metric("bind", "linux")] == 0
    for layer in metrics.TIMED_LAYERS:
        assert values[f"{layer}.calls"] > 0, layer
    assert values["scenarios.points"] == 2 + 2
    assert values["redteam.points"] == 2
    assert values["parallel.pool.chunks"] > 0


def test_lsm_hook_lists_match_the_modules():
    import inspect

    from repro.apparmor.module import AppArmorLSM
    from repro.core.protego import ProtegoLSM
    from repro.kernel.lsm import _ALL_HOOKS

    for short, cls in (("protego", ProtegoLSM), ("apparmor", AppArmorLSM)):
        assert set(metrics.LSM_HOOKS[short]) == {
            hook for hook in _ALL_HOOKS
            if inspect.isfunction(vars(cls).get(hook))}, short


def test_speed_samples_are_kept_and_timed():
    from perfbench.speed import Speed

    speed = Speed()
    first = speed.sample()
    speed.sample()
    assert first > 0 and len(speed.samples) == 2
    assert speed.mean() == sum(speed.samples) / 2
    assert speed.spent_ns > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
