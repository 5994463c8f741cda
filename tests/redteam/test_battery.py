"""The pinned-seed acceptance sweep: the battery invariant over a
50-scenario generated space, plus the replay and reporting contracts.

``REPRO_REDTEAM_SCENARIOS`` scales the sweep (minimum 10; CI smoke
uses the default 50).

At the default 50 scenarios the whole battery is pinned as a golden:
the rendered report (``battery_report_golden.txt``) and the sha256 of
its JSON with sorted keys, which holds across ``PYTHONHASHSEED``
values. A change that alters any record (an outcome, a mechanism, a
denial context) fails here; if the change is intended, regenerate both
and say which records moved and why.
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.analysis.escalation_surface import (
    escalation_report,
    render_report,
    surface_reduction,
)
from repro.redteam import run_battery, run_scenario_battery
from repro.redteam.techniques import MECHANISMS, TECHNIQUE_NAMES

SEED = 0
SCENARIOS = max(10, int(os.environ.get("REPRO_REDTEAM_SCENARIOS", "50")))

#: The golden's scenario count, its rendered report and JSON digest.
GOLDEN_SCENARIOS = 50
GOLDEN_REPORT = pathlib.Path(__file__).with_name("battery_report_golden.txt")
GOLDEN_SHA256 = \
    "6bbf7a8a20c6abfb9d3a16b34c7658e42078c3c0b64214cd99a0e0ec7818e48d"


@pytest.fixture(scope="module")
def battery():
    return run_battery(SEED, SCENARIOS)


class TestInvariant:
    def test_no_violations(self, battery):
        assert battery["violations"] == []

    def test_every_legacy_escalation_blocked(self, battery):
        assert battery["legacy_successes"] > 0
        assert battery["protego_blocks"] == battery["legacy_successes"]
        assert battery["block_rate"] == 1.0

    def test_zero_protego_escalations(self, battery):
        for record in battery["scenarios"]:
            for result in record["techniques"]:
                if result["applicable"]:
                    assert result["protego"]["outcome"] != "success"

    def test_every_block_attributed(self, battery):
        for record in battery["scenarios"]:
            for result in record["techniques"]:
                if not result["applicable"]:
                    continue
                for mode in ("legacy", "protego"):
                    outcome = result[mode]
                    if outcome["outcome"] == "blocked":
                        assert outcome["mechanism"] in MECHANISMS


class TestCoverage:
    def test_every_technique_applicable_somewhere(self, battery):
        applicable = {result["technique"]
                      for record in battery["scenarios"]
                      for result in record["techniques"]
                      if result["applicable"]}
        assert applicable == set(TECHNIQUE_NAMES)

    def test_every_mechanism_exercised(self, battery):
        assert set(battery["mechanisms"]) == set(MECHANISMS)

    def test_chain_count_matches_matrix(self, battery):
        assert battery["chains"] == sum(
            cell["applicable"] for cell in battery["matrix"].values())


class TestReplay:
    def test_scenario_record_is_bit_identical(self, battery):
        # The first scenario of the sweep, re-run standalone, must
        # reproduce the sweep's record exactly — the record is a pure
        # function of (seed, scenario_id).
        fresh = run_scenario_battery(SEED, 0)
        assert fresh == battery["scenarios"][0]
        assert fresh == run_scenario_battery(SEED, 0)


class TestSurfaceReport:
    def test_setuid_surface_vanishes(self, battery):
        reduction = surface_reduction(battery)
        assert reduction["setuid_binaries"]["legacy"] > 0
        assert reduction["setuid_binaries"]["protego"] == 0
        assert reduction["setuid_binaries"]["reduction_percent"] == 100.0

    def test_report_payload_shape(self, battery):
        report = escalation_report(battery)
        assert report["block_rate"] == 1.0
        assert report["violations"] == []
        assert set(report["matrix"]) == set(TECHNIQUE_NAMES)

    def test_rendered_report(self, battery):
        text = render_report(battery)
        assert "block rate 100.00%" in text
        assert "VIOLATIONS" not in text
        for name in TECHNIQUE_NAMES:
            assert name in text


@pytest.mark.skipif(SCENARIOS != GOLDEN_SCENARIOS,
                    reason="the golden pins the 50-scenario battery")
class TestGolden:
    def test_rendered_report_matches_the_golden(self, battery):
        assert render_report(battery) == GOLDEN_REPORT.read_text()

    def test_every_record_matches_the_golden(self, battery):
        blob = json.dumps(battery, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256
