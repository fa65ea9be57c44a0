"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them.  The same registry backs `haarmoments validate`.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from haarmoments.ensembles import EnsembleKind, averaged_form_factors
from haarmoments.linalg import RngStream, complex_normal
from haarmoments.mc import empirical_form_factors, empirical_moments
from haarmoments.validate import CRITERIA, report_json, run_validation, sigma_ratio
from haarmoments.weingarten import moment_function

SEED = 42


@pytest.mark.parametrize("index", range(len(CRITERIA)), ids=lambda i: CRITERIA[i].__name__)
def test_criterion(index):
    result = CRITERIA[index](seed=SEED, quick=False)
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_gate_catches_a_planted_ten_percent_error():
    # criterion 01's full inputs at (d, order) = (2, 4): 20 patterns, n = 1e5,
    # its pattern generator and its stream
    d, order = 2, 4
    gen = np.random.default_rng([SEED, 101, d, order])
    patterns = [[complex_normal(gen, (d, d)) for _ in range(order - 1)] for _ in range(20)]
    estimates = empirical_moments(patterns, d, 100_000, RngStream(SEED, 101 * order + d))
    exact = np.array([moment_function(xs, d) for xs in patterns])
    mean = np.array([e.mean for e in estimates])
    stderr = np.array([e.stderr for e in estimates])
    assert sigma_ratio(exact, mean, stderr, 1e-12) <= 1.0
    assert sigma_ratio(1.1 * exact, mean, stderr, 1e-12) > 1.0


def test_gate_of_a_zero_stderr_is_finite_through_its_floor():
    # at t = 0 every sampled form factor is exactly 1, so the stderr is exactly 0
    est = empirical_form_factors(EnsembleKind.POISSON, 4, 0.0, 1000, RngStream(SEED))
    exact = dataclasses.astuple(averaged_form_factors(EnsembleKind.POISSON, 0.0, 4))
    assert np.all(est.stderr == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ratio = sigma_ratio(exact, est.mean, est.stderr, 1e-12)
    assert math.isfinite(ratio) and ratio <= 1.0
    with pytest.warns(RuntimeWarning):
        assert math.isnan(sigma_ratio(exact, est.mean, est.stderr))


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
