from fractions import Fraction

import numpy as np
import pytest

import haarmoments.closed_forms as cf
from haarmoments.closed_forms import (
    FormFactorInputs,
    f_of_t,
    form_factor_inputs,
    general_average,
    haar_form_factors,
    time_coeffs,
    uniform_average,
    uniform_variance,
    variance_coeffs,
)
from haarmoments.cli import _DE_SCAN
from haarmoments.ensembles import EnsembleKind, poisson_form_factors
from haarmoments.errors import DimensionError
from haarmoments.linalg import (
    BipartiteDims,
    RngStream,
    hs_norm_sq,
    partial_trace_env,
    partial_trace_sys,
)
from haarmoments.mc import empirical_fixed_spectrum, empirical_reduced_norm
from haarmoments.validate import sigma_ratio

from conftest import random_hermitian, random_state
from twins import uniform_coeffs


def test_spectral_functions_refuse_non_finite_levels():
    # exp(-i inf t) would warn and give NaN; the level is refused instead
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="energy levels must be finite"):
            form_factor_inputs([0.0, 1.0, bad, 2.0], 0.5)
        with pytest.raises(ValueError, match="energy levels must be finite"):
            f_of_t([bad], 0.0)


def test_f_of_t_basics(gen):
    assert f_of_t(np.zeros(5), 1.23) == 1.0
    for t in (0.0, 0.4, 2.0):
        assert f_of_t([1.0, -1.0], t) == pytest.approx(np.cos(t), abs=1e-14)
    levels = gen.uniform(-2, 2, size=4)
    ts = np.linspace(0, 20, 1000)
    assert all(abs(f_of_t(levels, t)) <= 1.0 + 1e-12 for t in ts)


def test_spectral_functions_refuse_non_finite_times(gen):
    levels = gen.uniform(-2, 2, size=4)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="time must be finite"):
            f_of_t(levels, t)
        with pytest.raises(ValueError, match="time must be finite"):
            form_factor_inputs(levels, t)


def test_form_factor_inputs_concrete(gen):
    levels = gen.uniform(-2, 2, size=6)
    ff = form_factor_inputs(levels, 1.7)
    assert ff.f4 == pytest.approx(ff.f2**2, rel=1e-13)
    assert 0.0 <= ff.f2 <= 1.0
    assert 0.0 <= ff.f2_2t <= 1.0
    at0 = form_factor_inputs(levels, 0.0)
    assert (at0.f2, at0.f2_2t, at0.re_f2fc2t, at0.f4) == (1.0, 1.0, 1.0, 1.0)


def test_uniform_coeffs_limits():
    c1, c2 = uniform_coeffs(BipartiteDims(2, 1000))
    assert abs(c1) < 1e-2
    assert abs(c2 - 0.5) < 1e-2
    cs = variance_coeffs(BipartiteDims(2, 1000))
    assert all(abs(c) < 1e-6 for c in cs)


def test_uniform_average_pure_projector():
    dims = BipartiteDims(2, 2)
    proj = np.zeros((4, 4), dtype=complex)
    proj[0, 0] = 1.0
    assert uniform_average(proj, dims) == pytest.approx(0.8, abs=1e-14)
    assert uniform_average(np.zeros((4, 4)), dims) == 0.0


def test_uniform_variance_pure_projector():
    dims = BipartiteDims(2, 2)
    proj = np.zeros((4, 4), dtype=complex)
    proj[1, 1] = 1.0
    assert uniform_variance(proj, dims) == pytest.approx(18 / 1050, rel=1e-13)
    assert uniform_variance(np.zeros((4, 4)), dims) == 0.0


def test_uniform_against_mc(gen):
    dims = BipartiteDims(2, 3)
    m = random_hermitian(gen, dims.d)
    mean_est, var_est = empirical_reduced_norm(m, dims, 20_000, RngStream(17))
    assert sigma_ratio(uniform_average(m, dims), mean_est.mean, mean_est.stderr) <= 1
    assert sigma_ratio(uniform_variance(m, dims), var_est.mean, var_est.stderr) <= 1


def test_uniform_average_dim_mismatch(gen):
    with pytest.raises(DimensionError):
        uniform_average(np.eye(5), BipartiteDims(2, 3))


def test_closed_forms_refuse_non_hermitian_m(gen, monkeypatch):
    # the formulas hold for Hermitian M only: M = iI at dims (2, 2) read 1.6
    # where the sampled mean is 8.0.  The refusal comes before any arithmetic.
    def refuse(*args, **kwargs):
        raise AssertionError("no arithmetic on a refused M")

    monkeypatch.setattr(cf, "trace_power", refuse)
    dims = BipartiteDims(2, 2)
    ff = form_factor_inputs(gen.uniform(-2, 2, size=4), 0.7)
    h = random_hermitian(gen, 4)
    for m in (1j * np.eye(4), h + 1e-6j * h, np.triu(np.ones((4, 4)))):
        for call in (
            lambda: uniform_average(m, dims),
            lambda: uniform_variance(m, dims),
            lambda: general_average(m, dims, ff),
        ):
            with pytest.raises(ValueError, match="not Hermitian"):
                call()


def _variance_floor(dims):
    """c4 + c5 x_max, the least Var / (Tr M0^2)^2 over traceless Hermitian M0:
    c5 < 0 and Tr M0^4 <= x_max (Tr M0^2)^2 with x_max = (d^2 - 3d + 3) / (d (d - 1)),
    reached at M0 = diag(d - 1, -1, ..., -1).  Asserts c4 > 0 > c5 and a floor
    of at least 0.154 c4 (exactly 32/207 c4 at (2, 2))."""
    *_, c4, c5 = cf.variance_coeffs(dims)
    d = dims.d
    floor = c4 + c5 * (d * d - 3 * d + 3) / (d * (d - 1))
    assert c4 > 0 > c5, dims
    assert floor >= 0.154 * c4, dims
    return floor


def _check_variance_floor(dims, gen):
    floor = _variance_floor(dims)
    d = dims.d
    extremal = np.diag([d - 1.0] + [-1.0] * (d - 1))  # Tr M0^2 = d (d - 1)
    assert uniform_variance(extremal, dims) == pytest.approx(floor * (d * (d - 1)) ** 2, rel=1e-12)
    for m in [random_hermitian(gen, d) for _ in range(10)] + [
        extremal + 0.1 * random_hermitian(gen, d) for _ in range(10)
    ]:
        m0 = m - np.trace(m).real / d * np.eye(d)
        assert uniform_variance(m, dims) >= floor * hs_norm_sq(m0) ** 2 * (1 - 1e-12), dims


def test_uniform_variance_never_below_its_floor(gen):
    for ds, de in ((2, 2), (2, 3), (3, 3), (4, 8), (8, 16)):
        _check_variance_floor(BipartiteDims(ds, de), gen)
    *_, c4, _ = variance_coeffs(BipartiteDims(2, 2))
    assert _variance_floor(BipartiteDims(2, 2)) / c4 == pytest.approx(32 / 207, rel=1e-12)
    # the coefficients alone, on a log grid up to d_S = 4096, d_E = 65536
    for ds in (2, 5, 64, 4096):
        for de in (2, 7, 256, 65536):
            _variance_floor(BipartiteDims(ds, de))


def test_variance_floor_check_catches_a_corrupted_coefficient(gen, monkeypatch):
    # c5 scaled by 1.2 at (2, 2): c4 + c5 x_max = 69/350 - 1.2 (2/7)(7/12) = -1/350
    coeffs = variance_coeffs
    monkeypatch.setattr(cf, "variance_coeffs", lambda dims: (*coeffs(dims)[:4], 1.2 * coeffs(dims)[4]))
    with pytest.raises(AssertionError):
        _check_variance_floor(BipartiteDims(2, 2), gen)


def _power_sum_variance(m, dims):
    # the c1..c5 trace polynomial evaluated on M itself
    c1, c2, c3, c4, c5 = variance_coeffs(dims)
    t1, t2, t3, t4 = (np.trace(np.linalg.matrix_power(m, k)).real for k in (1, 2, 3, 4))
    return c1 * t1**4 + c2 * t1 * t3 + c3 * t1**2 * t2 + c4 * t2**2 + c5 * t4


def test_uniform_variance_matches_power_sum_formula(gen):
    for ds, de in ((2, 2), (2, 3), (3, 3), (4, 8)):
        dims = BipartiteDims(ds, de)
        m = random_hermitian(gen, dims.d)
        assert uniform_variance(m, dims) == pytest.approx(_power_sum_variance(m, dims), rel=1e-12)


def test_uniform_variance_shift_invariant(gen):
    dims = BipartiteDims(2, 3)
    h = random_hermitian(gen, dims.d)
    ref = uniform_variance(h, dims)
    for c in (1e2, 1e4):
        assert uniform_variance(h + c * np.eye(dims.d), dims) == pytest.approx(ref, rel=1e-9)


def test_time_coeffs_at_zero():
    for dims in (BipartiteDims(2, 2), BipartiteDims(2, 8), BipartiteDims(4, 4)):
        c = time_coeffs(FormFactorInputs(1.0, 1.0, 1.0, 1.0), dims)
        assert abs(c.ct1) <= 1e-12
        assert abs(c.ct2) <= 1e-12
        assert abs(c.ct3 - 1.0) <= 1e-12
        assert abs(c.ct4) <= 1e-12


def test_time_coeffs_gue_long_time_matches_uniform():
    # with f4 = f2^2 and f2 = f2_2t = 0 the coefficients equal the uniform pair
    for dims in (BipartiteDims(4, 4), BipartiteDims(2, 8), BipartiteDims(4, 8)):
        c = time_coeffs(FormFactorInputs(0.0, 0.0, 0.0, 0.0), dims)
        c1, c2 = uniform_coeffs(dims)
        assert abs(c.ct1 - c1) <= 1e-2
        assert abs(c.ct2 - c2) <= 1e-2
        assert abs(c.ct3) <= 1e-2
        assert abs(c.ct4) <= 1e-2


def test_time_coeffs_at_the_haar_constants_are_the_exact_uniform_pair():
    # Over (d_S, d_E) in [2, 8] x [2, 16] and the purity-vs-de grid, ct1 and
    # ct2 at the CUE constants sit at most 0.48 eps (relative) from the exact
    # (C1, C2), held to 4 eps; ct3 and ct4 are zero exactly and at most
    # 4.7e-20 in floats, held to 1e-18.
    grid = [(ds, de) for ds in range(2, 9) for de in range(2, 17)]
    grid += [(ds, de) for ds in (2, 3, 4, 5) for de in _DE_SCAN]
    eps = np.finfo(float).eps
    for ds, de in grid:
        dims = BipartiteDims(ds, de)
        c = time_coeffs(haar_form_factors(dims.d), dims)
        for value, exact in zip((c.ct1, c.ct2), uniform_coeffs(dims)):
            assert abs(Fraction(value) - exact) <= 4 * eps * exact, (ds, de)
        assert max(abs(c.ct3), abs(c.ct4)) <= 1e-18, (ds, de)


def test_poisson_inputs_large_de_kill_ct1_ct4():
    dims = BipartiteDims(2, 512)
    c = time_coeffs(poisson_form_factors(3.0, dims.d), dims)
    assert abs(c.ct1) < 2e-2
    assert abs(c.ct4) < 2e-2


def test_uniform_average_traceless_is_pure_c1(gen):
    dims = BipartiteDims(2, 3)
    m = random_hermitian(gen, dims.d)
    m -= np.trace(m) / dims.d * np.eye(dims.d)
    c1, _ = uniform_coeffs(dims)
    assert uniform_average(m, dims) == pytest.approx(
        c1 * hs_norm_sq(m), rel=1e-12
    )


def test_general_average_t0_collapse(gen):
    dims = BipartiteDims(2, 2)
    m = random_hermitian(gen, dims.d)
    target = hs_norm_sq(partial_trace_env(m, dims))
    got = general_average(m, dims, FormFactorInputs(1.0, 1.0, 1.0, 1.0))
    assert got == pytest.approx(target, rel=1e-12)


def test_general_average_traceless_double_marginal(gen):
    # both marginals vanish -> only the ct1 term survives
    dims = BipartiteDims(2, 2)
    rho = random_state(gen, dims.d)
    rho_s = partial_trace_env(rho, dims)
    rho_e = partial_trace_sys(rho, dims)
    m = rho - np.kron(rho_s, rho_e)
    levels = gen.uniform(-2, 2, size=dims.d)
    ff = form_factor_inputs(levels, 1.1)
    c = time_coeffs(ff, dims)
    assert general_average(m, dims, ff) == pytest.approx(
        c.ct1 * hs_norm_sq(m), rel=1e-10, abs=1e-12
    )


def test_general_average_quadratic_scaling(gen):
    dims = BipartiteDims(2, 3)
    m = random_hermitian(gen, dims.d)
    ff = form_factor_inputs(gen.uniform(-2, 2, size=dims.d), 0.9)
    base = general_average(m, dims, ff)
    assert general_average(2.5 * m, dims, ff) == pytest.approx(
        2.5**2 * base, rel=1e-10
    )


def test_general_average_against_mc(gen):
    dims = BipartiteDims(2, 2)
    m = random_hermitian(gen, dims.d)
    levels = np.array([-1.3, -0.2, 0.6, 1.4])
    t = 1.7
    ff = form_factor_inputs(levels, t)
    est = empirical_fixed_spectrum(m, dims, levels, t, 20_000, RngStream(18))
    assert sigma_ratio(general_average(m, dims, ff), est.mean, est.stderr) <= 1
