"""Chaos invariants over (scenario x fault-schedule) points.

Each point arms a seeded fault schedule on a scenario-built fleet,
drives the fleet day, and checks: fail-closed under faults, oracle
coherence and reconvergence after the faults clear, and bit-identical
replay from the three seeds alone. ``REPRO_SCENARIOS`` x
``REPRO_SCENARIO_SCHEDULES`` sizes the sweep (default 6x2 for CI;
the acceptance sweep runs hundreds of points through the same code).
"""

import os

from repro.core.recency import stamp_authentication
from repro.core.system import System, SystemMode
from repro.fleet.shard import FLEET_PROC_PATH, build_shards
from repro.kernel.fault import CATALOG
from repro.scenarios.chaos import (
    _root_delegable,
    fault_schedule,
    run_chaos_point,
    run_chaos_space,
)
from repro.scenarios.generator import generate_scenario

SCENARIOS = int(os.environ.get("REPRO_SCENARIOS", "6"))
SCHEDULES = int(os.environ.get("REPRO_SCENARIO_SCHEDULES", "2"))
BASE_SEED = int(os.environ.get("REPRO_SCENARIO_SEED", "0"))

# The sweep fans out over REPRO_WORKERS processes (serial default);
# the records are bit-identical at any worker count, which
# tests/parallel/test_sweeps.py pins.
POINTS = run_chaos_space(BASE_SEED, range(SCENARIOS), range(SCHEDULES))


def test_no_point_violates_the_chaos_invariants():
    bad = [(p["scenario_id"], p["schedule_id"], p["violations"])
           for p in POINTS if p["violations"]]
    assert not bad, bad


def test_schedules_are_pure_functions_of_the_seeds():
    for sid in range(3):
        for sch in range(3):
            assert fault_schedule(BASE_SEED, sid, sch) == \
                fault_schedule(BASE_SEED, sid, sch)
    assert fault_schedule(BASE_SEED, 0, 0) != fault_schedule(BASE_SEED, 0, 1)
    for name, _params in fault_schedule(BASE_SEED, 1, 1):
        assert name in CATALOG


def test_points_replay_bit_identically():
    replay = run_chaos_point(BASE_SEED, 0, 0)
    assert replay == POINTS[0]
    replay = run_chaos_point(BASE_SEED, SCENARIOS - 1, SCHEDULES - 1)
    assert replay == POINTS[-1]


def test_scoreboard_accounts_for_injected_faults():
    # Somewhere in the sweep, faults actually bit: the scoreboard is
    # non-vacuous, and every aborted session is a counted failure,
    # not a silent swallow.
    assert any(p["scoreboard"]["degraded_ops"] > 0
               or p["scoreboard"]["hard_failures"] > 0
               or p["scoreboard"]["aborted"] > 0 for p in POINTS)
    for point in POINTS:
        stats = point["stats"]
        assert stats["completed"] + stats["failed"] == stats["sessions"]
        # per_shard rows: (index, sessions, completed, failed, ops,
        # syncs, audit_appended, aborted, abort_errnos, sync_postponed,
        # degraded_ops, hard_failures, audit_crc, schedule_crc) — see
        # FleetStats.comparable().
        per_shard_aborted = sum(row[7] for row in stats["per_shard"])
        assert per_shard_aborted == point["scoreboard"]["aborted"]
        for row in stats["per_shard"]:
            assert sum(n for _, n in row[8]) == row[7]


def test_fleet_procfs_renders_the_chaos_line():
    spec = generate_scenario(BASE_SEED, 0)

    # Reuse a chaos-style fleet: the scoreboard line must be readable
    # from inside the system at /proc/protego/fleet.
    from repro.fleet.engine import FleetConfig, FleetEngine
    from repro.core.build import build_system

    shards = build_shards(
        SystemMode.PROTEGO, 2, tenants=["t00"],
        system_factory=lambda i: build_system(
            spec, SystemMode.PROTEGO, hostname=f"render-sh{i}"))
    roster = tuple((u.name, u.password) for u in spec.users)
    mix = {"interactive": 1}
    config = FleetConfig(sessions=8, shards=2, mode=SystemMode.PROTEGO,
                         seed=11, tenants=1, mix=mix, roster=roster)
    engine = FleetEngine(config, shards=shards)
    engine.run()

    system = shards[0].system
    payload = system.kernel.read_file(
        system.root_session(), f"/proc/{FLEET_PROC_PATH}").decode()
    assert "fleet: mode=protego" in payload
    assert "chaos: aborted=" in payload
    assert "hard_failures" in payload


def test_root_delegable_matches_the_sudoers():
    # Scenario 1 of seed 0 grants eli an unrestricted (root) rule and
    # judy a self-target rule only: the setuid probe must skip eli
    # and still run for judy.
    spec = generate_scenario(0, 1)
    by_name = {u.name: u for u in spec.users}
    assert _root_delegable(spec, by_name["eli"])
    assert not _root_delegable(spec, by_name["judy"])


def test_interrupted_shadow_rewrite_fails_passwd_closed():
    # Seed 109, scenario 1, schedule 3 arms syscall.entry at p=0.05: a
    # passwd write after its truncating open fails with EINTR and
    # leaves the user's shadow fragment empty. The next passwd on it
    # must fail closed instead of crashing the fleet day.
    point = run_chaos_point(109, 1, 3)
    assert point["violations"] == ()
    assert point["scoreboard"]["hard_failures"] > 0


def test_passwd_refuses_an_empty_shadow_fragment():
    system = System(SystemMode.PROTEGO)
    kernel = system.kernel
    kernel.write_file(system.root_session(), "/etc/shadows/alice", b"",
                      create=False)
    alice = system.session_for("alice")
    stamp_authentication(alice, kernel.now())
    status, out = system.run(alice, "/usr/bin/passwd", ["passwd"],
                             feed=["new-secret"])
    assert status != 0
    assert out == ["passwd: /etc/shadows/alice: no shadow entry"]
    assert kernel.read_file(kernel.init, "/etc/shadows/alice") == b""
