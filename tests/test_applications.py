import warnings

import numpy as np
import pytest

from haarmoments import applications
from haarmoments.applications import (
    ThermalizationParams,
    closed_thermalization,
    depolarizing_average,
    equilibration_large_de,
    fit_decay_exponent,
    gibbs_purity,
    gibbs_purity_mc,
    open_thermalization,
    purity_evolution,
    two_state_general,
    two_state_uniform,
    uniform_purity,
)
from haarmoments.closed_forms import (
    f_of_t,
    form_factor_inputs,
    general_average,
    time_coeffs,
    uniform_average,
    uniform_coeffs,
)
from haarmoments.ensembles import (
    EnsembleKind,
    averaged_form_factors,
    bessel_j1_over_t,
    sinc,
)
from haarmoments.errors import DimensionError
from haarmoments.linalg import (
    BipartiteDims,
    RngStream,
    hs_norm_sq,
    partial_trace_env,
    partial_trace_sys,
    sample_spectra,
)
from haarmoments.mc import (
    empirical_purity,
    empirical_reduced_norm,
    empirical_thermal_distance,
    product_state,
    schmidt_state,
)
from haarmoments.weingarten import moment_function

from conftest import haar_unitaries, random_complex, random_state


def test_two_state_uniform_identical_states(gen):
    dims = BipartiteDims(2, 2)
    rho = random_state(gen, 4)
    assert two_state_uniform(rho, rho, dims) == (0.0, 0.0)


def test_two_state_uniform_coefficient(gen):
    dims = BipartiteDims(2, 2)
    rho, rho_p = random_state(gen, 4), random_state(gen, 4)
    mean, var = two_state_uniform(rho, rho_p, dims)
    gap = hs_norm_sq(rho - rho_p)
    assert mean == pytest.approx(0.4 * gap, rel=1e-12)
    assert var >= 0.0


def test_two_state_uniform_against_mc(gen):
    dims = BipartiteDims(2, 2)
    rho, rho_p = random_state(gen, 4), random_state(gen, 4)
    mean, var = two_state_uniform(rho, rho_p, dims)
    mean_est, var_est = empirical_reduced_norm(rho - rho_p, dims, 20_000, RngStream(41))
    assert abs(mean - mean_est.mean) <= 5 * mean_est.stderr
    assert abs(var - var_est.mean) <= 5 * var_est.stderr


def test_two_state_uniform_rejects_non_state(gen):
    dims = BipartiteDims(2, 2)
    with pytest.raises(ValueError):
        two_state_uniform(np.eye(4), random_state(gen, 4), dims)


def test_two_state_general_product_reference(gen):
    dims = BipartiteDims(2, 2)
    rho = random_state(gen, 4)
    rho_prod = np.kron(partial_trace_env(rho, dims), partial_trace_sys(rho, dims))
    levels = gen.uniform(-2, 2, size=4)
    ff = form_factor_inputs(levels, 1.3)
    got = two_state_general(rho, rho_prod, dims, ff)
    expect = time_coeffs(ff, dims).ct1 * hs_norm_sq(rho - rho_prod)
    assert got == pytest.approx(expect, rel=1e-12)
    ff0 = form_factor_inputs(levels, 0.0)
    assert two_state_general(rho, rho_prod, dims, ff0) == pytest.approx(0.0, abs=1e-12)


def test_two_state_general_falls_back_to_full_average(gen):
    dims = BipartiteDims(2, 2)
    rho, rho_p = random_state(gen, 4), random_state(gen, 4)
    levels = gen.uniform(-2, 2, size=4)
    ff = form_factor_inputs(levels, 0.8)
    assert two_state_general(rho, rho_p, dims, ff) == pytest.approx(
        general_average(rho - rho_p, dims, ff), rel=1e-12
    )


def test_depolarizing_identity_and_mixing(gen):
    d = 4
    rho = random_state(gen, d)
    assert np.max(np.abs(depolarizing_average(rho, 1.0, d) - rho)) <= 1e-12
    out0 = depolarizing_average(rho, 0.0, d)
    expect = d**2 / (d**2 - 1) * np.eye(d) / d - rho / (d**2 - 1)
    assert np.allclose(out0, expect, atol=1e-13)
    assert np.trace(out0).real == pytest.approx(1.0, abs=1e-12)
    out_mix = depolarizing_average(rho, 1 / d**2, d)
    assert np.allclose(out_mix, np.eye(d) / d, atol=1e-13)


def test_depolarizing_output_is_state_for_valid_f2(gen):
    d = 3
    rho = random_state(gen, d)
    for f2 in np.linspace(1 / d**2, 1.0, 7):
        out = depolarizing_average(rho, float(f2), d)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -1e-10
    # below 1/d^2 the map coefficients go negative but no error is raised
    out = depolarizing_average(rho, 0.0, d)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_depolarizing_guards(gen):
    with pytest.raises(ValueError):
        depolarizing_average(random_state(gen, 3), 1.2, 3)
    with pytest.raises(DimensionError, match="d must be >= 2"):
        depolarizing_average(np.ones((1, 1)), 0.5, 1)
    with pytest.raises(DimensionError, match="d must be >= 2 and an integer"):
        depolarizing_average(np.eye(2) / 2, 0.5, 2.0)


def test_depolarizing_is_the_weingarten_twirl(gen):
    # U D U^dag rho U D^dag U^dag averaged over Haar U: the evolution by a
    # fixed spectrum in Haar eigenvectors, with f = Tr D / d
    t = 0.7
    for d in (2, 3, 5, 8):
        levels = gen.uniform(-2, 2, size=d)
        diag = np.diag(np.exp(-1j * levels * t))
        f = np.trace(diag) / d
        rho = random_state(gen, d)
        twirl = moment_function([diag, rho, diag.conj().T], d)
        assert np.max(np.abs(depolarizing_average(rho, abs(f) ** 2, d) - twirl)) <= 1e-12, d


def test_uniform_purity_values():
    mean, var = uniform_purity(1.0, BipartiteDims(2, 2))
    assert mean == 0.8
    assert var == pytest.approx(18 / 1050, rel=1e-14)
    mean_mixed, var_mixed = uniform_purity(0.5, BipartiteDims(2, 2))
    assert var_mixed is None
    assert mean_mixed < mean
    with pytest.raises(ValueError):
        uniform_purity(0.1, BipartiteDims(2, 2))


def test_uniform_purity_large_de_expansion():
    ds, de = 2, 1000
    mean, _ = uniform_purity(1.0, BipartiteDims(ds, de))
    assert abs(mean - (1 / ds + (1 - 1 / ds**2) / de)) <= 1e-4


def test_uniform_purity_is_the_uniform_average_of_the_state(gen):
    for ds, de in ((2, 2), (2, 3), (3, 4)):
        dims = BipartiteDims(ds, de)
        for _ in range(3):
            rho = random_state(gen, dims.d)
            mean, _ = uniform_purity(hs_norm_sq(rho), dims)
            assert mean == pytest.approx(uniform_average(rho, dims), rel=1e-12)


def test_purity_evolution_is_the_general_average_of_the_state():
    times = [0.0, 0.3, 1.7, 6.0]
    for kind, dims in (
        (EnsembleKind.POISSON, BipartiteDims(2, 4)),
        (EnsembleKind.POISSON, BipartiteDims(4, 8)),
        (EnsembleKind.GUE_NUMERIC, BipartiteDims(2, 4)),
        (EnsembleKind.GUE_NUMERIC, BipartiteDims(4, 4)),
        (EnsembleKind.GUE_LARGE_D, BipartiteDims(4, 16)),
    ):
        for p0 in (1.0 / dims.d_s, 0.5 * (1.0 / dims.d_s + 1.0), 1.0):
            psi = schmidt_state(dims, p0)
            rho0 = np.outer(psi, psi.conj())
            values = purity_evolution(kind, dims, p0, times).values
            for t, value in zip(times, values):
                ff = averaged_form_factors(kind, t, dims.d)
                expect = general_average(rho0, dims, ff)
                assert value == pytest.approx(expect, rel=1e-12), (kind, dims, p0, t)


def test_purity_evolution_starts_at_p0():
    for kind, dims, p0 in (
        (EnsembleKind.POISSON, BipartiteDims(2, 8), 0.6),
        (EnsembleKind.GUE_LARGE_D, BipartiteDims(2, 8), 1.0),
        (EnsembleKind.GUE_NUMERIC, BipartiteDims(2, 4), 0.75),
    ):
        traj = purity_evolution(kind, dims, p0, [0.0, 0.7])
        assert abs(traj.values[0] - p0) <= 1e-10


def test_purity_evolution_gue_asymptote():
    dims = BipartiteDims(2, 8)
    traj = purity_evolution(EnsembleKind.GUE_LARGE_D, dims, 1.0, [50.0])
    assert traj.values[0] == pytest.approx(10 / 17, abs=1e-2)


def test_purity_evolution_forgets_initial_state():
    dims = BipartiteDims(32, 128)
    times = np.linspace(20, 50, 16)
    for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_LARGE_D):
        pure = purity_evolution(kind, dims, 1.0, times).values
        mixed = purity_evolution(kind, dims, 1.0 / 32, times).values
        assert np.max(np.abs(pure - mixed)) < 1e-2


def test_purity_evolution_bounds():
    times = np.linspace(0, 50, 51)
    for ds, de in ((2, 2), (2, 8), (4, 4)):
        dims = BipartiteDims(ds, de)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_LARGE_D):
                vals = purity_evolution(kind, dims, 1.0, times).values
                assert np.all(vals >= 1 / ds - 1e-6)
                assert np.all(vals <= 1 + 1e-6)


def test_purity_evolution_bounds_gue_numeric():
    times = np.linspace(0, 50, 26)
    dims = BipartiteDims(2, 2)
    vals = purity_evolution(EnsembleKind.GUE_NUMERIC, dims, 1.0, times).values
    assert np.all(vals >= 0.5 - 1e-6)
    assert np.all(vals <= 1 + 1e-6)


def test_purity_evolution_gue_numeric_against_mc():
    dims = BipartiteDims(2, 2)
    for i, t in enumerate((0.5, 1.0, 2.0)):
        ana = purity_evolution(EnsembleKind.GUE_NUMERIC, dims, 1.0, [t]).values[0]
        est = empirical_purity(dims, "gue", product_state(dims), t, 40_000, RngStream(61, i))
        assert abs(est.mean - ana) <= 5 * est.stderr, t


def test_purity_evolution_uniform_is_flat():
    dims = BipartiteDims(2, 4)
    traj = purity_evolution(EnsembleKind.UNIFORM, dims, 1.0, [0.0, 1.0, 9.0])
    mean, _ = uniform_purity(1.0, dims)
    assert np.allclose(traj.values, mean, atol=0)


def test_purity_consistency_uniform_vs_gue_long_time():
    dims = BipartiteDims(4, 4)
    mean, _ = uniform_purity(1.0, dims)
    traj = purity_evolution(EnsembleKind.GUE_LARGE_D, dims, 1.0, [200.0])
    assert abs(traj.values[0] - mean) <= 1e-2


def test_gibbs_purity_limits(gen):
    levels = gen.uniform(-2, 2, size=6)
    assert gibbs_purity(levels, 0.0) == pytest.approx(1 / 6, abs=1e-15)
    assert gibbs_purity(levels, 1e6) == pytest.approx(1.0, abs=1e-9)
    # two-level closed form: cosh(2)/(2 cosh(1)^2) = 0.790013...
    val = gibbs_purity([-1.0, 1.0], 1.0)
    expect = (np.exp(2) + np.exp(-2)) / (np.exp(1) + np.exp(-1)) ** 2
    assert val == pytest.approx(expect, rel=1e-14)
    assert val == pytest.approx(0.7900128291929869, abs=1e-12)
    # a stack of spectra gives one purity per row
    stack = gen.uniform(-2, 2, size=(3, 6))
    rows = [gibbs_purity(e, 1.5) for e in stack]
    assert gibbs_purity(stack, 1.5) == pytest.approx(rows, rel=1e-14)


def test_gibbs_purity_refuses_non_finite_beta():
    for beta in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="inverse temperature"):
            gibbs_purity([-1.0, 1.0], beta)


def test_spectra_with_no_level_are_refused():
    # refused up front, not answered with NaN or numpy's zero-size error
    for levels in ([], np.zeros((3, 0))):
        with pytest.raises(ValueError, match="at least one energy level"):
            gibbs_purity(levels, 1.0)
        with pytest.raises(ValueError, match="at least one energy level"):
            f_of_t(levels, 1.0)
        with pytest.raises(ValueError, match="at least one energy level"):
            form_factor_inputs(levels, 1.0)


def test_gibbs_purity_refuses_non_finite_levels():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="energy levels must be finite"):
            gibbs_purity([0.0, 1.0, bad, 2.0], 1.0)
        with pytest.raises(ValueError, match="energy levels must be finite"):
            gibbs_purity([[0.0, 1.0], [bad, 2.0]], 1.0)


def test_gibbs_purity_mc_beta_zero():
    assert gibbs_purity_mc(EnsembleKind.POISSON, 4, 0.0, 100, RngStream(50)) == (
        0.25,
        0.0,
    )


def _count_spectrum_draws(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sample_spectra(*args, **kwargs)

    monkeypatch.setattr(applications, "sample_spectra", counted)
    return calls


def test_gibbs_purity_mc_rejects_negative_beta(monkeypatch):
    calls = _count_spectrum_draws(monkeypatch)
    with pytest.raises(ValueError, match="inverse temperature"):
        gibbs_purity_mc(EnsembleKind.POISSON, 4, -0.5, 100, RngStream(55))
    with pytest.raises(ValueError, match="inverse temperature"):
        gibbs_purity_mc(EnsembleKind.GUE_NUMERIC, 32, -1.0, 20_000, RngStream(1))
    assert calls == []


def test_gibbs_purity_mc_refuses_one_sample(monkeypatch):
    calls = _count_spectrum_draws(monkeypatch)
    with pytest.raises(ValueError, match=">= 2"):
        gibbs_purity_mc(EnsembleKind.POISSON, 4, 1.0, 1, RngStream(56))
    assert calls == []


def test_gibbs_purity_mc_needs_sampled_spectra(monkeypatch):
    calls = _count_spectrum_draws(monkeypatch)
    for kind in (EnsembleKind.UNIFORM, EnsembleKind.GUE_LARGE_D):
        with pytest.raises(ValueError, match="no spectra"):
            gibbs_purity_mc(kind, 4, 1.0, 100, RngStream(54))
    assert calls == []
    gibbs_purity_mc(EnsembleKind.POISSON, 4, 1.0, 100, RngStream(54))
    assert len(calls) == 1


def test_gibbs_purity_mc_stderr_scaling():
    _, se_small = gibbs_purity_mc(EnsembleKind.POISSON, 4, 2.0, 1000, RngStream(51))
    _, se_large = gibbs_purity_mc(EnsembleKind.POISSON, 4, 2.0, 4000, RngStream(51))
    assert 1.8 <= se_small / se_large <= 2.2


def test_poisson_exceeds_gue_at_high_temperature():
    # level repulsion raises low-temperature purity, so the regular-spectrum
    # advantage appears on the high-temperature side (see DECISIONS.md)
    beta = 0.2
    p, pse = gibbs_purity_mc(EnsembleKind.POISSON, 4, beta, 20_000, RngStream(52))
    g, gse = gibbs_purity_mc(EnsembleKind.GUE_NUMERIC, 4, beta, 20_000, RngStream(53))
    assert (p - g) / np.hypot(pse, gse) >= 3.0


def test_closed_thermalization_values():
    assert closed_thermalization(0.25, 0.25, 4) == pytest.approx(0.0, abs=1e-15)
    assert closed_thermalization(1.0, 1.0, 4) == pytest.approx(2 * 3 / 4, rel=1e-14)
    assert closed_thermalization(0.4, 1.0, 4) == pytest.approx(0.9, rel=1e-14)
    with pytest.raises(ValueError):
        closed_thermalization(0.1, 1.0, 4)
    for d in (0, 2.5, True):
        with pytest.raises(DimensionError, match="d must be >= 1 and an integer"):
            closed_thermalization(0.5, 0.5, d)


def test_closed_thermalization_time_independent_mc(gen):
    levels = gen.uniform(-2, 2, size=4)
    beta = 1.5
    rho0 = random_state(gen, 4)
    p_g = gibbs_purity(levels, beta)
    p_0 = float(np.trace(rho0 @ rho0).real)
    expect = closed_thermalization(p_g, p_0, 4)
    for i in range(3):
        est = empirical_thermal_distance(levels, beta, rho0, 20_000, RngStream(54, i))
        assert abs(est.mean - expect) <= 5 * est.stderr


def test_closed_thermal_distance_is_time_independent(gen):
    # U(t) = W e^{-iDt} W^dag commutes with rho_G = W g W^dag, so the distance
    # to the evolved state is the distance to rho0 at every t
    d, beta = 5, 0.9
    w = haar_unitaries(d, 1, RngStream(57))[0]
    levels = gen.uniform(-2, 2, size=d)
    g = np.exp(-beta * levels)
    rho_g = (w * (g / g.sum())) @ w.conj().T
    rho0 = random_state(gen, d)
    expect = hs_norm_sq(rho_g - rho0)
    for t in (0.4, 1.9, 7.3):
        u = (w * np.exp(-1j * levels * t)) @ w.conj().T
        got = hs_norm_sq(rho_g - u @ rho0 @ u.conj().T)
        assert got == pytest.approx(expect, rel=1e-12), t


def test_open_thermalization_t0_value():
    dims = BipartiteDims(2, 8)
    params = ThermalizationParams(dims=dims, p_gibbs=0.4, p_rho0=1.0, p_s0=1.0, p_e0=1.0)
    curve = open_thermalization(params, EnsembleKind.POISSON, [0.0])
    c1, c2 = uniform_coeffs(dims)
    expect = c1 * 0.4 + c2 + 1.0 - 2 / dims.d_s
    assert curve.values[0] == pytest.approx(expect, abs=1e-12)


def test_open_thermalization_is_the_average_of_concrete_states(gen):
    # the curve reads rho0 and rho_G through their purities alone; the
    # asymmetric dims tell p_s0 from p_e0
    for ds, de in ((2, 3), (3, 2)):
        dims = BipartiteDims(ds, de)
        rho0 = random_state(gen, dims.d)
        w = haar_unitaries(dims.d, 1, RngStream(58, ds))[0]
        g = np.exp(-0.7 * gen.uniform(-2, 2, size=dims.d))
        rho_g = (w * (g / g.sum())) @ w.conj().T
        params = ThermalizationParams(
            dims=dims,
            p_gibbs=hs_norm_sq(rho_g),
            p_rho0=hs_norm_sq(rho0),
            p_s0=hs_norm_sq(partial_trace_env(rho0, dims)),
            p_e0=hs_norm_sq(partial_trace_sys(rho0, dims)),
        )
        for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_NUMERIC):
            times = [0.7, 2.3]
            curve = open_thermalization(params, kind, times)
            for t, value in zip(times, curve.values):
                ff = averaged_form_factors(kind, t, dims.d)
                expect = uniform_average(rho_g, dims) + general_average(rho0, dims, ff) - 2 / ds
                assert value == pytest.approx(expect, rel=1e-12), (dims, kind, t)


def test_open_thermalization_large_de_poisson_limit():
    dims = BipartiteDims(2, 512)
    params = ThermalizationParams(dims=dims, p_gibbs=0.5)
    times = [1.0, 2.0, 4.0]
    curve = open_thermalization(params, EnsembleKind.POISSON, times)
    c0 = 1.0 - 0.5
    for t, v in zip(times, curve.values):
        assert abs(v - c0 * sinc(2 * t) ** 4) <= 2e-2


def test_open_thermalization_large_de_gue_limit():
    dims = BipartiteDims(2, 512)
    params = ThermalizationParams(dims=dims, p_gibbs=0.5)
    times = [1.0, 2.0, 4.0]
    curve = open_thermalization(params, EnsembleKind.GUE_LARGE_D, times)
    c0 = 0.5
    for t, v in zip(times, curve.values):
        assert abs(v - c0 * bessel_j1_over_t(t) ** 4) <= 2e-2


def test_equilibration_large_de_curves():
    times = np.linspace(0.0, 10.0, 101)
    poi = equilibration_large_de(EnsembleKind.POISSON, 2, 1.0, times)
    gue = equilibration_large_de(EnsembleKind.GUE_LARGE_D, 2, 1.0, times)
    assert poi.values[0] == pytest.approx(0.5, abs=1e-15)
    assert gue.values[0] == pytest.approx(0.5, abs=1e-15)
    assert np.all(poi.values >= -1e-12)
    with pytest.raises(ValueError):
        equilibration_large_de(EnsembleKind.UNIFORM, 2, 1.0, times)
    with pytest.raises(DimensionError):
        equilibration_large_de(EnsembleKind.POISSON, 1, 1.0, times)
    with pytest.raises(DimensionError, match="d_s must be >= 2 and an integer"):
        equilibration_large_de(EnsembleKind.POISSON, 2.0, 1.0, times)
    for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_LARGE_D):
        for p_s0 in (5.0, 0.4):  # a purity of a qubit lies in [1/2, 1]
            with pytest.raises(ValueError, match="p_s0 = .* outside"):
                equilibration_large_de(kind, 2, p_s0, times)


def test_curves_refuse_non_finite_times():
    dims = BipartiteDims(2, 8)
    params = ThermalizationParams(dims, p_gibbs=0.5)
    for t in (np.nan, np.inf):
        times = [0.0, t]
        for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_NUMERIC, EnsembleKind.GUE_LARGE_D):
            with pytest.raises(ValueError, match="time must be finite"):
                purity_evolution(kind, dims, 1.0, times)
            with pytest.raises(ValueError, match="time must be finite"):
                open_thermalization(params, kind, times)
        for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_LARGE_D):
            with pytest.raises(ValueError, match="time must be finite"):
                equilibration_large_de(kind, 2, 1.0, times)


def test_fit_decay_exponent_pure_power_law():
    times = np.linspace(2.0, 30.0, 4000)
    from haarmoments.applications import Curve

    curve = Curve(times=times, values=3.0 * times**-4.0)
    assert fit_decay_exponent(curve, (2.0, 30.0)) == pytest.approx(-4.0, abs=1e-6)


def test_fit_decay_exponent_errors():
    from haarmoments.applications import Curve

    times = np.linspace(2.0, 4.0, 50)
    curve = Curve(times=times, values=times**-4.0)
    with pytest.raises(ValueError):
        fit_decay_exponent(curve, (2.0, 3.0))  # fewer than 4 envelope windows
    with pytest.raises(ValueError):
        fit_decay_exponent(curve, (1.0, 3.0))  # window outside the curve
    zero_curve = Curve(times=times, values=np.zeros_like(times))
    with pytest.raises(ValueError):
        fit_decay_exponent(zero_curve, (2.0, 4.0))
    for window in ((0.0, 3.0), (-1.0, 3.0)):
        with pytest.raises(ValueError, match="need 0 < t0 < t1"):
            fit_decay_exponent(curve, window)
