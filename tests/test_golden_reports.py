"""Every shipped scenario's ``xcache sim`` report, byte for byte.

The files under ``tests/golden/`` are the reports of ``scenarios/*.xsim``
as run with default settings; a change that alters what a scenario
publishes, who provides a fetch or how verification ends shows here.
"""

from pathlib import Path

import pytest

from xcache.scenario import run_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.xsim"))


def test_every_scenario_has_a_golden_report():
    assert sorted(p.stem for p in SCENARIOS) == sorted(p.stem for p in GOLDEN.glob("*.report"))


@pytest.mark.parametrize("script", SCENARIOS, ids=lambda p: p.stem)
def test_report_matches_golden(script):
    result = run_scenario(script.read_text(), base_dir=script.parent)
    assert result.failures == []
    assert result.report.encode() == (GOLDEN / f"{script.stem}.report").read_bytes()
