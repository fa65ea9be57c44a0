"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them.  The same registry backs `haarmoments validate`.
"""

import json

import pytest

from haarmoments.validate import (
    CRITERIA,
    report_json,
    run_criterion,
    run_validation,
)

SEED = 42


@pytest.mark.parametrize("index", range(len(CRITERIA)), ids=lambda i: CRITERIA[i].__name__)
def test_criterion(index):
    result = run_criterion(index, seed=SEED, quick=False)
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_report_bit_identical_across_worker_counts(monkeypatch):
    reports = []
    for threads in ("1", "8"):
        monkeypatch.setenv("HAARMOMENTS_THREADS", threads)
        reports.append(report_json(run_validation(seed=SEED, quick=True)))
    assert reports[0] == reports[1]


def test_report_shape():
    report = run_validation(seed=SEED, quick=True)
    assert len(report["criteria"]) == 10
    parsed = json.loads(report_json(report))
    assert parsed["seed"] == SEED
    assert set(parsed) == {"version", "seed", "quick", "criteria", "all_passed"}
