"""The process-parallel fleet engine vs the serial per-shard oracle.

The contract under test: ``run_fleet_parallel(config, workers=N)``
produces a report whose ``comparable()`` — schedule digest and
per-shard audit CRCs included — is bit-identical to a serial
``FleetEngine(config).run()`` of the same per-shard config, for every
worker count; and a worker process *rebuilding* its shard slice from
``(config, seed)`` alone reproduces the in-parent shards byte for
byte (the guard against module-level memos leaking run-dependent
state into construction).
"""

import multiprocessing

import pytest

from repro.fleet.engine import (
    GLOBAL,
    PER_SHARD,
    FleetConfig,
    FleetEngine,
)
from repro.fleet.stats import FleetStats
from repro.parallel.fleet import run_fleet_parallel, run_fleet_slice

CONFIG = FleetConfig(sessions=240, shards=4, seed=29,
                     record_schedule=True, schedule=PER_SHARD)


def serial_comparable(config=CONFIG):
    return FleetEngine(config).run().comparable()


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 6])
    def test_comparable_is_bit_identical(self, workers):
        assert run_fleet_parallel(CONFIG, workers=workers).comparable() \
            == serial_comparable()

    def test_audit_and_schedule_crcs_survive_the_pool(self):
        stats = run_fleet_parallel(CONFIG, workers=2)
        for report in stats.shard_reports:
            assert report.audit_crc != 0
            assert report.schedule_crc is not None
        assert stats.schedule_digest is not None

    def test_ledger_percentiles_match_serial(self):
        serial = FleetEngine(CONFIG).run()
        parallel = run_fleet_parallel(CONFIG, workers=3)
        assert (parallel.session_p50, parallel.session_p95,
                parallel.session_p99) == \
            (serial.session_p50, serial.session_p95, serial.session_p99)
        assert parallel.op_latency == serial.op_latency
        assert parallel.session_mean == serial.session_mean

    def test_more_workers_than_shards(self):
        config = FleetConfig(sessions=80, shards=2, seed=3,
                             record_schedule=True, schedule=PER_SHARD)
        assert run_fleet_parallel(config, workers=8).comparable() == \
            serial_comparable(config)

    def test_env_knob_resolves_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert run_fleet_parallel(CONFIG).comparable() == \
            serial_comparable()


class TestConfigRejection:
    def test_global_schedule_is_refused(self):
        config = FleetConfig(sessions=10, shards=2, schedule=GLOBAL)
        with pytest.raises(ValueError, match="per-shard"):
            run_fleet_parallel(config, workers=2)

    def test_roster_fleets_are_refused(self):
        config = FleetConfig(sessions=10, shards=2, schedule=PER_SHARD,
                             roster=(("u", "p"),))
        with pytest.raises(ValueError, match="roster"):
            run_fleet_parallel(config, workers=2)


class TestWorkerRebuildEquivalence:
    def test_fresh_process_rebuild_is_byte_identical(self):
        """A spawned (cold-import — no inherited memos) worker running
        one shard slice ships back exactly the parts the parent
        computes in-process: the construction path is a pure function
        of (config, indices), module-level caches included."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("no spawn start method on this platform")
        task = (CONFIG, (1, 3))
        local_parts = run_fleet_slice(task)
        context = multiprocessing.get_context("spawn")
        with context.Pool(1) as pool:
            remote_parts = pool.apply(run_fleet_slice, (task,))
        assert len(remote_parts) == len(local_parts) == 2
        for local, remote in zip(local_parts, remote_parts):
            assert remote.comparable() == local.comparable()
            assert remote.shard_reports[0].audit_crc == \
                local.shard_reports[0].audit_crc
            assert remote.shard_reports[0].schedule_crc == \
                local.shard_reports[0].schedule_crc
            assert remote.session_ledger._samples == \
                local.session_ledger._samples

    def test_slices_merge_to_the_full_fleet(self):
        parts = [part
                 for indices in ((0, 2), (1, 3))
                 for part in run_fleet_slice((CONFIG, indices))]
        assert FleetStats.merge(parts).comparable() == serial_comparable()
