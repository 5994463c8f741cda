"""Fleet determinism: same seed, same everything.

The engine promises that a run is a pure function of ``(seed,
config)``: the interleaving, every counter, the per-shard audit
sequences. These tests pin that promise, including under injected
daemon crashes — fault schedules are themselves seeded, so a crashing
fleet replays exactly.
"""

import zlib

from repro.fleet import FleetConfig, FleetEngine, build_shards
from repro.kernel.fault import (
    SITE_DAEMON_CRASH,
    SITE_SESSION_ABORT,
    SITE_SHARD_SYNC,
)


def _audit_digests(engine):
    """CRC32 fingerprint of every shard's audit sequence."""
    return [zlib.crc32(shard.kernel.security_server.audit.render().encode())
            for shard in engine.shards]


def _run(config):
    engine = FleetEngine(config)
    stats = engine.run()
    return stats, _audit_digests(engine)


def test_same_seed_same_stats_and_audit_sequences():
    config = FleetConfig(sessions=120, shards=4, seed=1234,
                         record_schedule=True)
    first, first_audit = _run(config)
    second, second_audit = _run(config)
    assert first.comparable() == second.comparable()
    assert first.schedule_digest == second.schedule_digest
    assert first_audit == second_audit
    # The run actually exercised the full day: syncs and churn ops
    # happened, otherwise the equality proves little.
    assert sum(r.syncs for r in first.shard_reports) >= 1
    assert first.op_counts.get("passwd", 0) >= 1
    assert first.ops > 1000


def test_different_seed_changes_the_schedule():
    base = FleetConfig(sessions=60, shards=2, seed=1, record_schedule=True)
    other = FleetConfig(sessions=60, shards=2, seed=2, record_schedule=True)
    first, _ = _run(base)
    second, _ = _run(other)
    assert first.schedule_digest != second.schedule_digest


def _crashing_engine(config):
    """A fleet whose daemons crash under load, deterministically."""
    tenants = [f"t{i:02d}" for i in range(config.tenants)]
    shards = build_shards(config.mode, config.shards, tenants=tenants)
    for shard in shards:
        shard.kernel.faults.configure(SITE_DAEMON_CRASH, probability=0.5,
                                      seed=config.seed)
    return FleetEngine(config, shards=shards)


def test_fleet_survives_daemon_crashes_and_replays_exactly():
    config = FleetConfig(sessions=80, shards=2, seed=99, tenants=16,
                         record_schedule=True)

    runs = []
    for _ in range(2):
        engine = _crashing_engine(config)
        stats = engine.run()
        runs.append((stats, _audit_digests(engine), engine))

    (first, first_audit, engine), (second, second_audit, _) = runs
    assert first.comparable() == second.comparable()
    assert first_audit == second_audit
    assert first.completed + first.failed == config.sessions

    # The supervisor actually worked: crashes were injected, and after
    # disarming and riding out the restart backoff the daemons come
    # back — a post-recovery login on each shard succeeds.
    crashes = restarts = 0
    for shard in engine.shards:
        kernel = shard.kernel
        kernel.faults.disarm_all()
        kernel.tick(shard.system.supervisor.max_backoff + 1)
        shard.system.sync()
        board = shard.system.status_board
        crashes += board.crashes
        restarts += board.restarts
        assert shard.system.login("alice", "alice-password") is not None
    assert crashes >= 1
    assert restarts >= 1


def _faulted_engine(config, site, **params):
    tenants = [f"t{i:02d}" for i in range(config.tenants)]
    shards = build_shards(config.mode, config.shards, tenants=tenants)
    for shard in shards:
        shard.kernel.faults.configure(site, seed=config.seed, **params)
    return FleetEngine(config, shards=shards)


def test_session_aborts_are_counted_not_swallowed():
    """An armed ``session.abort`` site kills sessions mid-script; the
    engine must account for every one — per-shard, per-errno, and in
    the fleet totals — and the whole run must replay exactly."""
    config = FleetConfig(sessions=80, shards=2, seed=4242, tenants=8,
                         record_schedule=True)

    runs = []
    for _ in range(2):
        engine = _faulted_engine(config, SITE_SESSION_ABORT,
                                 probability=0.2)
        runs.append((engine.run(), _audit_digests(engine)))

    (first, first_audit), (second, second_audit) = runs
    assert first.comparable() == second.comparable()
    assert first_audit == second_audit

    assert first.aborted >= 1
    assert first.aborted == sum(r.aborted for r in first.shard_reports)
    # Every abort was attributed to an errno, and aborted sessions are
    # failed sessions — nothing vanished from the ledger.
    for report in first.shard_reports:
        assert sum(report.abort_errnos.values()) == report.aborted
        assert report.failed >= report.aborted
    assert first.completed + first.failed == config.sessions
    # The scoreboard made it into the rendered report too.
    assert f"aborted={first.aborted}" in first.render()


def test_postponed_syncs_are_counted_and_drained():
    # seed 7 draws admin sessions whose passwd rotations raise
    # needs_sync on both shards, so the armed site has syncs to bite.
    config = FleetConfig(sessions=120, shards=2, seed=7, tenants=8)
    engine = _faulted_engine(config, SITE_SHARD_SYNC, probability=1.0,
                             times=1)
    stats = engine.run()
    assert stats.sync_postponed >= 1

    # Once the site is exhausted/disarmed the postponed syncs drain:
    # a manual sync succeeds and leaves no stale policy behind.
    for shard in engine.shards:
        shard.kernel.faults.disarm_all()
        shard.sync()
        assert not shard.needs_sync
        assert not shard.system.status_board.any_stale()
