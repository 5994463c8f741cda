"""Merge algebra: ledgers and fleet reports fold deterministically.

The engine's per-shard parts (serial or from the process-parallel
engine) stand on two properties pinned here: LatencyLedger folds are
exact on aggregates and associative on reservoirs, and
FleetStats.merge is a pure function of the part *set* — any grouping,
any arrival order, same report.
"""

import random

from repro.fleet.engine import FleetConfig, FleetEngine
from repro.fleet.stats import (
    FleetStats,
    LatencyLedger,
    combine_schedule_digests,
    percentile,
)


def ledger_of(values, cap=8192):
    ledger = LatencyLedger(cap=cap)
    for value in values:
        ledger.record(value)
    return ledger


def state(ledger):
    return (ledger.count, ledger.total, ledger.max,
            ledger._samples, ledger._stride)


class TestLatencyLedgerMerge:
    def test_exact_aggregates_add(self):
        a = ledger_of([1.0, 5.0, 3.0])
        b = ledger_of([2.0, 9.0])
        merged = LatencyLedger.merged([a, b])
        assert merged.count == 5
        assert merged.total == 20.0
        assert merged.max == 9.0
        assert merged.mean == 4.0

    def test_below_cap_merge_concatenates_in_fold_order(self):
        a = ledger_of([1.0, 2.0])
        b = ledger_of([3.0])
        assert LatencyLedger.merged([a, b])._samples == [1.0, 2.0, 3.0]

    def test_merge_is_order_defined(self):
        # The fold order is part of the contract: shard-id order is
        # canonical, and swapping operands changes the reservoir.
        a, b = ledger_of([1.0, 2.0]), ledger_of([3.0])
        ab = LatencyLedger.merged([a, b])._samples
        ba = LatencyLedger.merged([b, a])._samples
        assert ab != ba

    def test_merge_is_associative_in_fold_order(self):
        # Integer-valued samples, like both clocks produce (ticks or
        # nanoseconds): float addition over them is exact, so even the
        # running totals regroup without rounding drift.
        rng = random.Random(7)
        parts = [ledger_of([rng.randrange(10 ** 9) for _ in range(n)],
                           cap=16)
                 for n in (40, 3, 17, 90, 1)]
        flat = LatencyLedger.merged(parts)
        left = LatencyLedger.merged(
            [LatencyLedger.merged(parts[:2]), LatencyLedger.merged(parts[2:])])
        right = LatencyLedger.merged(
            [parts[0], LatencyLedger.merged(parts[1:4]), parts[4]])
        assert state(flat) == state(left) == state(right)

    def test_mixed_strides_concatenate_untouched(self):
        # Realigning reservoirs at merge time would break associativity
        # (slice offsets shift with the left operand's length), so a
        # merge concatenates and only the *future* stride coarsens.
        coarse = ledger_of(range(100), cap=16)   # stride > 1
        fine = ledger_of([0.5, 0.25], cap=16)    # stride == 1
        merged = LatencyLedger.merged([coarse, fine])
        assert merged._stride == coarse._stride
        assert merged._samples == coarse._samples + [0.5, 0.25]

    def test_deferred_cap_decimation_resumes_on_record(self):
        parts = [ledger_of(range(20), cap=8) for _ in range(4)]
        merged = LatencyLedger.merged(parts)
        assert merged.cap == 8
        assert len(merged._samples) > 8  # transiently over cap
        for _ in range(100):
            merged.record(1.0)  # decimation catches up lazily
        assert len(merged._samples) <= 8

    def test_merge_into_empty_adopts_other(self):
        other = ledger_of([4.0, 2.0])
        merged = LatencyLedger.merged([LatencyLedger(), other])
        assert merged.count == 2
        assert merged._samples == [4.0, 2.0]


class TestLatencyLedgerPercentiles:
    @staticmethod
    def one_sort_each(ledger):
        """The three single-percentile calls ``percentiles()`` replaces."""
        return tuple(percentile(ledger._samples, fraction)
                     for fraction in (0.50, 0.95, 0.99))

    def test_empty_and_single_sample_reservoirs(self):
        empty = LatencyLedger()
        assert empty.percentiles() == self.one_sort_each(empty) \
            == (0.0, 0.0, 0.0)
        single = ledger_of([7.0])
        assert single.percentiles() == self.one_sort_each(single) \
            == (7.0, 7.0, 7.0)

    def test_seeded_reservoirs_match_the_single_percentiles(self):
        for seed in range(20):
            rng = random.Random(seed)
            count = rng.randrange(1, 400)
            ledger = ledger_of([rng.randrange(10 ** 6) for _ in range(count)],
                               cap=rng.choice((16, 64, 8192)))
            assert ledger.percentiles() == self.one_sort_each(ledger)


class TestCombineScheduleDigests:
    def test_all_none_is_none(self):
        assert combine_schedule_digests([None, None]) is None

    def test_order_sensitive(self):
        assert combine_schedule_digests([1, 2]) != \
            combine_schedule_digests([2, 1])

    def test_deterministic(self):
        assert combine_schedule_digests([10, 20, 30]) == \
            combine_schedule_digests([10, 20, 30])


class TestFleetStatsMerge:
    CONFIG = FleetConfig(sessions=240, shards=4, seed=23,
                         record_schedule=True)

    def parts(self):
        return FleetEngine(self.CONFIG).run_parts()

    def test_merged_equals_engine_run(self):
        merged = FleetStats.merge(self.parts())
        assert merged.comparable() == FleetEngine(self.CONFIG).run() \
            .comparable()

    def test_merge_is_associative_in_shard_id_order(self):
        parts = self.parts()
        flat = FleetStats.merge(parts)
        grouped = FleetStats.merge([
            FleetStats.merge(parts[:2]), FleetStats.merge(parts[2:])])
        assert flat.comparable() == grouped.comparable()
        assert flat.session_ledger._samples == \
            grouped.session_ledger._samples

    def test_merge_sorts_parts_by_shard_id(self):
        parts = self.parts()
        shuffled = [parts[2], parts[0], parts[3], parts[1]]
        assert FleetStats.merge(shuffled).comparable() == \
            FleetStats.merge(parts).comparable()

    def test_merged_counters_are_sums(self):
        parts = self.parts()
        merged = FleetStats.merge(parts)
        assert merged.completed == sum(p.completed for p in parts)
        assert merged.failed == sum(p.failed for p in parts)
        assert merged.ops == sum(p.ops for p in parts)
        assert merged.shards == 4
        assert len(merged.shard_reports) == 4
        assert [r.index for r in merged.shard_reports] == [0, 1, 2, 3]

    def test_merged_digest_combines_per_shard_crcs(self):
        parts = self.parts()
        merged = FleetStats.merge(parts)
        assert merged.schedule_digest == combine_schedule_digests(
            [p.shard_reports[0].schedule_crc for p in parts])
        assert all(p.shard_reports[0].schedule_crc is not None
                   for p in parts)

    def test_merged_percentiles_come_from_merged_ledger(self):
        parts = self.parts()
        merged = FleetStats.merge(parts)
        ledger = LatencyLedger.merged([p.session_ledger for p in parts])
        assert (merged.session_p50, merged.session_p95,
                merged.session_p99) == ledger.percentiles()
        assert merged.session_mean == ledger.mean
