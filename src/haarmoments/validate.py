"""Acceptance-criteria registry shared by the test suite and `haarmoments validate`.

Every criterion is a deterministic function of (seed, quick); the emitted
report carries no timing, and the Monte Carlo estimates merge their chunks in
chunk order, so identical configurations produce byte-identical reports
whatever worker count ``HAARMOMENTS_THREADS`` sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

from . import __version__
from .applications import (
    equilibration_large_de,
    fit_decay_exponent,
    gibbs_purity_mc,
    purity_evolution,
    depolarizing_average,
    uniform_purity,
)
from .closed_forms import (
    FormFactorInputs,
    time_coeffs,
    uniform_average,
    uniform_variance,
)
from .ensembles import (
    EnsembleKind,
    averaged_form_factors,
    averaged_time_coeffs,
    bessel_j1_over_t,
)
from .linalg import BipartiteDims, RngStream, complex_normal, haar_batches
from .mc import (
    accumulate_chunks,
    empirical_form_factors,
    empirical_moments,
    empirical_purity,
    empirical_reduced_norm,
    product_state,
)
from .weingarten import moment_function


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))


def _random_hermitian(gen: np.random.Generator, d: int) -> np.ndarray:
    a = complex_normal(gen, (d, d))
    return (a + a.conj().T) / 2


def _fmt(x: float) -> str:
    return repr(float(x))


def criterion_01_moment_oracle(seed: int, quick: bool) -> CriterionResult:
    """Analytic E^(4)/E^(6)/E^(8) match the Monte Carlo word average entrywise."""
    n = 2_000 if quick else 100_000
    tuples = 3 if quick else 20
    worst = 0.0
    for d in (2, 3, 4):
        for order in (4, 6, 8):
            m = order // 2
            if d < m:  # gated by the tests (d = 2 exactly); 7 s more here at n = 1e5
                continue
            gen = np.random.default_rng([seed, 101, d, order])
            patterns = [
                [complex_normal(gen, (d, d)) for _ in range(order - 1)]
                for _ in range(tuples)
            ]
            estimates = empirical_moments(patterns, d, n, RngStream(seed, 101 * order + d))
            for xs, est in zip(patterns, estimates):
                ana = moment_function(xs, d)
                dev = np.abs(ana - est.mean) / (5.0 * est.stderr + 1e-12)
                worst = max(worst, float(dev.max()))
    return CriterionResult(
        "01-moment-oracle",
        worst <= 1.0,
        f"max entrywise |analytic - mc| / (5 stderr) = {_fmt(worst)}",
    )


def criterion_02_scalar_moments(seed: int, quick: bool) -> CriterionResult:
    """<|U00|^2> = 1/d and <|U00|^4> = 2/(d(d+1)) via Weingarten and sampling."""
    n = 2_000 if quick else 200_000
    worst_exact = 0.0
    worst_mc = 0.0
    for d in (2, 3, 5):
        p0 = np.zeros((d, d), dtype=complex)
        p0[0, 0] = 1.0
        m1 = moment_function([p0], d)[0, 0].real
        m2 = moment_function([p0, p0, p0], d)[0, 0].real
        worst_exact = max(
            worst_exact, abs(m1 - 1 / d), abs(m2 - 2 / (d * (d + 1)))
        )

        def chunk(gen, count, d=d):
            u00 = np.concatenate([u[:, 0, 0] for u in haar_batches(d, count, gen)])
            a2 = np.abs(u00) ** 2
            return (np.stack([a2, a2**2], axis=1),)

        est = accumulate_chunks(chunk, n, RngStream(seed, 200 + d))[0].estimate()
        targets = np.array([1 / d, 2 / (d * (d + 1))])
        worst_mc = max(worst_mc, float(np.max(np.abs(est.mean - targets) / (5 * est.stderr))))
    passed = worst_exact <= 1e-12 and worst_mc <= 1.0
    return CriterionResult(
        "02-scalar-moments",
        passed,
        f"weingarten max abs dev = {_fmt(worst_exact)}; "
        f"mc max dev/(5 stderr) = {_fmt(worst_mc)}",
    )


def criterion_03_uniform_moments(seed: int, quick: bool) -> CriterionResult:
    """Uniform average and variance match Monte Carlo on random Hermitian M."""
    n = 2_000 if quick else 100_000
    worst = 0.0
    for i, (ds, de) in enumerate(((2, 2), (2, 3), (3, 3))):
        dims = BipartiteDims(ds, de)
        gen = np.random.default_rng([seed, 301, ds, de])
        m = _random_hermitian(gen, dims.d)
        mean_est, var_est = empirical_reduced_norm(m, dims, n, RngStream(seed, 300 + i))
        worst = max(
            worst,
            abs(uniform_average(m, dims) - mean_est.mean) / (5 * mean_est.stderr),
            abs(uniform_variance(m, dims) - var_est.mean) / (5 * var_est.stderr),
        )
    return CriterionResult(
        "03-uniform-average-variance",
        worst <= 1.0,
        f"max |analytic - mc| / (5 stderr) = {_fmt(worst)}",
    )


def criterion_04_t0_identities(seed: int, quick: bool) -> CriterionResult:
    """Coefficients, purity trajectories and the channel collapse exactly at t = 0."""
    worst_c = 0.0
    for ds, de in ((2, 2), (2, 8), (4, 4)):
        c = time_coeffs(FormFactorInputs(1.0, 1.0, 1.0, 1.0), BipartiteDims(ds, de))
        worst_c = max(
            worst_c, abs(c.ct1), abs(c.ct2), abs(c.ct3 - 1.0), abs(c.ct4)
        )
    worst_p = 0.0
    cases = [
        (EnsembleKind.POISSON, BipartiteDims(2, 8), 0.7),
        (EnsembleKind.GUE_LARGE_D, BipartiteDims(2, 8), 1.0),
        (EnsembleKind.GUE_NUMERIC, BipartiteDims(2, 4), 0.55),
    ]
    for kind, dims, p0 in cases:
        traj = purity_evolution(kind, dims, p0, [0.0])
        worst_p = max(worst_p, abs(traj.values[0] - p0))
    gen = np.random.default_rng([seed, 401])
    a = complex_normal(gen, (4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    worst_d = float(np.max(np.abs(depolarizing_average(rho, 1.0, 4) - rho)))
    passed = worst_c <= 1e-12 and worst_p <= 1e-10 and worst_d <= 1e-12
    return CriterionResult(
        "04-t0-identities",
        passed,
        f"coeff dev = {_fmt(worst_c)}; purity dev = {_fmt(worst_p)}; "
        f"channel dev = {_fmt(worst_d)}",
    )


def criterion_05_purity_asymptotics(seed: int, quick: bool) -> CriterionResult:
    """Pure-state purity values at (2,2) and the large-d_E expansion."""
    mean, var = uniform_purity(1.0, BipartiteDims(2, 2))
    ok_mean = mean == 0.8
    ok_var = var == 18.0 / 1050.0
    ds, de = 2, 1000
    mean_large, _ = uniform_purity(1.0, BipartiteDims(ds, de))
    expansion = 1.0 / ds + (1.0 - 1.0 / ds**2) / de
    dev = abs(mean_large - expansion)
    passed = ok_mean and ok_var and dev < 1e-4
    return CriterionResult(
        "05-purity-asymptotics",
        passed,
        f"(2,2) mean = {_fmt(mean)} (want 0.8 exactly), variance = {_fmt(var)} "
        f"(want 18/1050); large-d_E deviation = {_fmt(dev)}",
    )


def criterion_06_ensemble_limits(seed: int, quick: bool) -> CriterionResult:
    """Averaged coefficients at d_E = 512 sit within 2e-2 of the printed limits."""
    dims = BipartiteDims(2, 512)
    ds = dims.d_s
    worst = 0.0
    for t in (1.0, 2.0, 4.0):
        c_poi = averaged_time_coeffs(EnsembleKind.POISSON, t, dims)
        lim2_poi = (
            128 * t**4 + 4 * math.cos(4 * t) - math.cos(8 * t) - 3
        ) / (128 * ds * t**4)
        lim3_poi = (math.cos(t) * math.sin(t) / t) ** 4
        c_gue = averaged_time_coeffs(EnsembleKind.GUE_LARGE_D, t, dims)
        h4 = bessel_j1_over_t(t) ** 4
        worst = max(
            worst,
            abs(c_poi.ct2 - lim2_poi),
            abs(c_poi.ct3 - lim3_poi),
            abs(c_gue.ct2 - (1.0 - h4) / ds),
            abs(c_gue.ct3 - h4),
        )
    return CriterionResult(
        "06-ensemble-limits",
        worst <= 2e-2,
        f"max |coefficient - printed limit| = {_fmt(worst)} (tolerance 2e-2)",
    )


def criterion_07_decay_laws(seed: int, quick: bool) -> CriterionResult:
    """Envelope exponents -4 (Poisson) / -6 (GUE) and the t = 0 value c0."""
    times = np.linspace(0.0, 30.0, 6001)
    p_s0 = 1.0
    c0 = p_s0 - 0.5
    poi = equilibration_large_de(EnsembleKind.POISSON, 2, p_s0, times)
    gue = equilibration_large_de(EnsembleKind.GUE_LARGE_D, 2, p_s0, times)
    exp_poi = fit_decay_exponent(poi, (2.0, 30.0))
    exp_gue = fit_decay_exponent(gue, (2.0, 30.0))
    dev0 = max(abs(poi.values[0] - c0), abs(gue.values[0] - c0))
    passed = abs(exp_poi + 4.0) <= 0.3 and abs(exp_gue + 6.0) <= 0.4 and dev0 <= 1e-10
    return CriterionResult(
        "07-decay-laws",
        passed,
        f"poisson exponent = {_fmt(exp_poi)} (want -4 +- 0.3); "
        f"gue exponent = {_fmt(exp_gue)} (want -6 +- 0.4); "
        f"t=0 deviation from c0 = {_fmt(dev0)}",
    )


def criterion_08_gibbs_ordering(seed: int, quick: bool) -> CriterionResult:
    """Stated Fig. 5 ordering: Poisson > GUE mean Gibbs purity at d=4, beta=10.

    Implemented exactly as stated.  Simulation of the defining quantity shows
    the opposite ordering at beta = 10 (level repulsion suppresses small
    ground-state gaps and therefore *raises* low-temperature purity); see the
    decisions ledger, DECISIONS.md.  The stated ordering does hold for beta
    below ~0.81.
    """
    n = 1_000 if quick else 10_000
    p_mean, p_se = gibbs_purity_mc(EnsembleKind.POISSON, 4, 10.0, n, RngStream(seed, 801))
    g_mean, g_se = gibbs_purity_mc(EnsembleKind.GUE_NUMERIC, 4, 10.0, n, RngStream(seed, 802))
    sep = (p_mean - g_mean) / math.hypot(p_se, g_se)
    return CriterionResult(
        "08-gibbs-ordering",
        sep >= 3.0,
        f"(poisson - gue) / combined stderr = {_fmt(sep)} at beta=10 "
        f"(poisson = {_fmt(p_mean)}, gue = {_fmt(g_mean)}); the stated "
        "ordering is reversed at this temperature - see the decisions ledger, DECISIONS.md",
    )


def criterion_09_gue_numeric_vs_sampled(seed: int, quick: bool) -> CriterionResult:
    """All four exact GUE spectral functions at d = 4 match sampled GUE spectra.

    The samples go through ``mc.empirical_form_factors``, whose four entries
    follow the field order of ``FormFactorInputs``.
    """
    d = 4
    n = 1_000 if quick else 10_000
    kind = EnsembleKind.GUE_NUMERIC
    worst = 0.0
    for ti, t in enumerate((0.5, 1.0, 2.0)):
        est = empirical_form_factors(kind, d, t, n, RngStream(seed, 910 + ti))
        exact = np.array(astuple(averaged_form_factors(kind, t, d)))
        worst = max(worst, float(np.max(np.abs(exact - est.mean) / (5 * est.stderr))))
    return CriterionResult(
        "09-gue-numeric-vs-sampled",
        worst <= 1.0,
        f"max |analytic - mc| / (5 stderr) over the four spectral functions = {_fmt(worst)}",
    )


def _representative_estimates(seed: int, n: int, workers) -> str:
    """Deterministic digest of a representative set of Monte Carlo results."""
    dims = BipartiteDims(2, 3)
    gen = np.random.default_rng([seed, 1001])
    m = _random_hermitian(gen, dims.d)
    mean_est, var_est = empirical_reduced_norm(
        m, dims, n, RngStream(seed, 1002), workers=workers
    )
    xs = [complex_normal(gen, (3, 3)) for _ in range(3)]
    mom = empirical_moments([xs], 3, n, RngStream(seed, 1003), workers=workers)[0]
    pur = empirical_purity(
        dims, EnsembleKind.POISSON, product_state(dims), 1.5, n, RngStream(seed, 1004),
        workers=workers,
    )
    gp = gibbs_purity_mc(
        EnsembleKind.POISSON, 4, 2.0, n, RngStream(seed, 1005), workers=workers
    )
    parts = [
        _fmt(mean_est.mean),
        _fmt(var_est.mean),
        " ".join(_fmt(v) for v in np.ravel(mom.mean.view(float))),
        _fmt(pur.mean),
        _fmt(gp[0]),
        _fmt(gp[1]),
    ]
    return "|".join(parts)


def criterion_10_reproducibility(seed: int, quick: bool) -> CriterionResult:
    """Identical results with 1 worker and 8 workers (ordered chunk reduction)."""
    n = 2_000 if quick else 20_000
    one = _representative_estimates(seed, n, workers=1)
    eight = _representative_estimates(seed, n, workers=8)
    return CriterionResult(
        "10-reproducibility",
        one == eight,
        "1-worker and 8-worker estimates bit-identical"
        if one == eight
        else f"mismatch: {one} != {eight}",
    )


CRITERIA = [
    criterion_01_moment_oracle,
    criterion_02_scalar_moments,
    criterion_03_uniform_moments,
    criterion_04_t0_identities,
    criterion_05_purity_asymptotics,
    criterion_06_ensemble_limits,
    criterion_07_decay_laws,
    criterion_08_gibbs_ordering,
    criterion_09_gue_numeric_vs_sampled,
    criterion_10_reproducibility,
]


def run_criterion(index: int, seed: int = 42, quick: bool = False) -> CriterionResult:
    """Run one criterion by 0-based index."""
    return CRITERIA[index](seed, quick)


def run_validation(seed: int = 42, quick: bool = False) -> dict:
    """Run every acceptance criterion and assemble the machine-readable report."""
    results = [run_criterion(i, seed, quick) for i in range(len(CRITERIA))]
    return {
        "version": __version__,
        "seed": seed,
        "quick": quick,
        "criteria": [asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }


def report_lines(report: dict) -> list[str]:
    lines = []
    for c in report["criteria"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"{status} {c['name']}: {c['detail']}")
    lines.append(
        "all criteria passed"
        if report["all_passed"]
        else "some criteria FAILED"
    )
    return lines


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
