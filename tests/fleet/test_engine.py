"""Fleet engine basics: admission, scheduling, reporting, procfs."""

import pytest

from repro.core.system import SystemMode
from repro.fleet import (
    FleetConfig,
    FleetEngine,
    build_shards,
    run_fleet,
)
from repro.fleet.clock import TickClock
from repro.fleet.engine import admit_sessions
from repro.fleet.shard import FLEET_PROC_PATH


def test_smoke_run_completes_every_session():
    stats = run_fleet(FleetConfig(sessions=40, shards=2, seed=7))
    assert stats.completed + stats.failed == 40
    assert stats.failed == 0
    assert stats.ops > 40  # many ops per session
    assert stats.sessions_per_sec > 0
    per_shard = sum(r.completed + r.failed for r in stats.shard_reports)
    assert per_shard == 40
    assert all(r.sessions > 0 for r in stats.shard_reports)


def test_linux_mode():
    stats = run_fleet(FleetConfig(sessions=30, shards=2, seed=3,
                                  mode=SystemMode.LINUX))
    assert stats.completed == 30
    assert stats.mode == "linux"


def test_tenant_pinned_to_one_shard():
    engine = FleetEngine(FleetConfig(sessions=60, shards=4, seed=1,
                                     tenants=16))
    groups = admit_sessions(engine.config, engine.shards)
    assert sum(len(group) for group in groups.values()) == 60
    shard_of_tenant = {}
    for index, group in groups.items():
        for session in group:
            tenant = session.sid % 16
            shard_of_tenant.setdefault(tenant, index)
            assert shard_of_tenant[tenant] == index
            assert index == tenant % 4
    # With 16 tenants over 4 shards, every shard hosts someone.
    assert len(set(shard_of_tenant.values())) == 4


def test_fastpath_ablation_disables_every_shard():
    engine = FleetEngine(FleetConfig(sessions=20, shards=2, seed=5,
                                     fastpath=False))
    assert all(not shard.kernel.fastpath.enabled for shard in engine.shards)
    stats = engine.run()
    assert stats.completed == 20
    assert all(r.fastpath_hit_rate == 0.0 for r in stats.shard_reports)


def test_proc_fleet_endpoint_reports_run():
    engine = FleetEngine(FleetConfig(sessions=25, shards=2, seed=9))
    engine.run()
    for shard in engine.shards:
        root = shard.system.root_session()
        text = shard.kernel.read_file(
            root, f"/proc/{FLEET_PROC_PATH}").decode()
        assert "fleet: mode=protego" in text
        assert f"shard {shard.index}" in text
        assert "hit rates:" in text


def test_tick_clock_latencies_are_interleaving_distance():
    stats = run_fleet(FleetConfig(sessions=10, shards=1, seed=2))
    assert stats.clock == "tick"
    assert stats.latency_unit == "ticks"
    # A session's tick latency can't exceed the whole run's tick span.
    assert 0 < stats.session_p50 <= stats.elapsed
    assert stats.session_p99 >= stats.session_p50


def test_engine_accepts_prebuilt_shards():
    shards = build_shards(SystemMode.PROTEGO, 2,
                          tenants=[f"t{i:02d}" for i in range(8)])
    config = FleetConfig(sessions=12, shards=2, seed=4, tenants=8)
    stats = FleetEngine(config, shards=shards).run()
    assert stats.completed == 12
    assert stats.shards == 2


def test_prebuilt_shards_must_match_the_configured_count():
    # Admission places tenant i on shard i % config.shards, so a shard
    # list of another size would silently drop or misplace sessions.
    shards = build_shards(SystemMode.PROTEGO, 2,
                          tenants=[f"t{i:02d}" for i in range(8)])
    config = FleetConfig(sessions=12, shards=4, seed=4, tenants=8)
    with pytest.raises(ValueError, match="config.shards=4"):
        FleetEngine(config, shards=shards)


def test_live_count_falls_monotonically_across_shard_groups():
    # The /proc/protego/fleet live= figure is fleet-wide: it must not
    # drop to 0 when one shard's group ends and rise with the next.
    class RecordingClock(TickClock):
        def __init__(self):
            super().__init__()
            self.live = []

        def advance(self):
            self.live.append(engine.tally.live)
            return super().advance()

    clock = RecordingClock()
    engine = FleetEngine(FleetConfig(sessions=40, shards=4, seed=6),
                         clock=clock)
    engine.run()
    assert clock.live[0] == 40
    assert all(a >= b for a, b in zip(clock.live, clock.live[1:]))
    assert engine.tally.live == 0
    assert engine.tally.completed + engine.tally.failed == 40
