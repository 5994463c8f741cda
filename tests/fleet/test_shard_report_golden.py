"""A golden render of the per-shard fleet reports.

Each :class:`~repro.fleet.stats.ShardReport` is built from the shard's
counter deltas between the start and the end of a run: the four cache
hit rates, the stale evictions, the invalidations summed over the
three path-keyed caches and the audit-ring pressure. This test runs
one fixed fleet on the tick clock and pins every report's render
against ``shard_report_golden.txt``, so a change to where those
counters are read from, or how they are combined, shows up as a diff
even when every other fleet test still passes.

The render holds no inode numbers, so it is the same in any process,
whatever was booted before it.
"""

import pathlib

from repro.fleet import FleetConfig, run_fleet

GOLDEN = pathlib.Path(__file__).with_name("shard_report_golden.txt")


def render_reports() -> str:
    stats = run_fleet(FleetConfig(sessions=200, shards=2, seed=42))
    return "".join(report.render() + "\n" for report in stats.shard_reports)


def test_shard_reports_match_the_golden_render():
    assert render_reports() == GOLDEN.read_text()
