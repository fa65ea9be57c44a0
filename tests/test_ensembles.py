import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from haarmoments.ensembles import (
    EnsembleKind,
    _expansion,
    _form_factors,
    _gue_blocks,
    _gue_step,
    _gue_window,
    _hermite_functions,
    _moment_function,
    averaged_form_factors,
    averaged_time_coeffs,
    bessel_j1_over_t,
    gue_form_factors,
    poisson_form_factors,
    sinc,
)
from haarmoments.errors import DimensionError
from haarmoments.linalg import (
    WORD_CAP,
    BipartiteDims,
    RngStream,
    sample_gue_hamiltonians,
    sample_spectra,
)
from haarmoments.mc import empirical_form_factors
from haarmoments.weingarten import cycles_of

# high-precision reference values (Abramowitz & Stegun conventions)
J1_REFERENCE = [
    (0.5, 0.2422684576748739),
    (1.0, 0.4400505857449335),
    (2.0, 0.5767248077568734),
    (3.0, 0.3390589585259365),
    (5.0, -0.32757913759146523),
    (7.9, 0.2191793999217512),
    (8.0, 0.23463634685391463),
    (10.0, 0.04347274616886144),
    (13.5, 0.03804929208600142),
    (15.999, 0.09057768514822208),
    (16.0, 0.09039717566130419),
    (16.001, 0.09021658741463592),
    (20.0, 0.06683312417585005),
    (50.0, -0.09751182812517514),
    (100.0, -0.07714535201411216),
    (1000.0, 0.004728311907089524),
]


def j1(x):
    return 0.5 * x * bessel_j1_over_t(0.5 * x)


def test_bessel_j1_reference_values():
    for x, ref in J1_REFERENCE:
        assert abs(bessel_j1_over_t(0.5 * x) - 2.0 * ref / x) <= 1e-15, x
        assert j1(-x) == -j1(x)
    assert j1(0.0) == 0.0


def test_bessel_j1_small_argument_series():
    x = 1e-3
    assert j1(x) == pytest.approx(x / 2 - x**3 / 16, abs=1e-13)
    assert j1(x) == pytest.approx(4.999999375e-4, abs=1e-12)


def test_bessel_first_zero_by_bisection():
    lo, hi = 3.0, 4.5
    assert j1(lo) > 0 > j1(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if j1(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(3.8317059702, abs=1e-3)


def test_bessel_j1_over_t_node_doubling():
    # the trapezoidal rule on twice the panels agrees to rounding level
    for t in np.linspace(0.01, 1000.0, 400):
        n = 2 * (2 * int(np.ceil(t)) + 32)
        theta = np.pi / n * np.arange(1, n)
        doubled = 2.0 / n * np.sum(np.sin(theta) ** 2 * np.cos(2.0 * t * np.cos(theta)))
        assert abs(bessel_j1_over_t(t) - doubled) <= 1e-13, t


def test_sinc_and_h_arrays_match_the_scalar_formulas():
    # the per-time formulas the array route replaced, bit for bit: each time
    # keeps its panel count n = 2 ceil|t| + 32, inside a grid of any shape
    def h_alone(t):
        n = 2 * math.ceil(abs(t)) + 32
        theta = np.pi / n * np.arange(1, n)
        return 2.0 / n * np.sum(np.sin(theta) ** 2 * np.cos(2.0 * t * np.cos(theta)))

    times = np.concatenate([np.linspace(-50.0, 50.0, 1001), [0.0, 1e-9, 1234.5, 9999.9]])
    h = bessel_j1_over_t(times.reshape(5, 201))
    assert h.shape == (5, 201)
    assert h.ravel().tolist() == [h_alone(t) if t else 1.0 for t in times.tolist()]
    x = np.concatenate([2.0 * times, 4.0 * times])
    assert sinc(x).tolist() == [math.sin(v) / v if v else 1.0 for v in x.tolist()]
    assert isinstance(sinc(0.5), float) and isinstance(bessel_j1_over_t(0.5), float)


def test_bessel_j1_over_t_limit():
    assert bessel_j1_over_t(0.0) == 1.0
    assert bessel_j1_over_t(1e-9) == pytest.approx(1.0, abs=1e-9)


def test_poisson_form_factors_at_zero():
    for d in (2, 4, 7, 16):
        ff = poisson_form_factors(0.0, d)
        assert (ff.f2, ff.f2_2t, ff.re_f2fc2t, ff.f4) == (1.0, 1.0, 1.0, 1.0)
        # every sample is exactly 1 at t = 0, so the sampled twin is exact too
        est = empirical_form_factors(EnsembleKind.POISSON, d, 0.0, 2000, RngStream(403, d))
        assert est.mean.tolist() == [1.0] * 4 and est.stderr.tolist() == [0.0] * 4


def test_poisson_f2_at_quarter_period():
    for d in (2, 5, 9):
        assert poisson_form_factors(np.pi / 2, d).f2 == pytest.approx(1 / d, abs=1e-15)


def test_poisson_f2_transcription():
    # the hand-expanded coincidence polynomials with c2 = cos 2t, s2 = sinc 2t
    # and s4 = sinc 4t, against the set-partition expansion
    for d in (1, 2, 3, 7, 64, 4096):
        for t in np.linspace(0.001, 20, 1000):
            c2, s2, s4 = np.cos(2 * t), np.sin(2 * t) / (2 * t), np.sin(4 * t) / (4 * t)
            expected = (
                1 / d + (d - 1) / d * s2**2,
                1 / d + (d - 1) / d * s4**2,
                (1 + (d - 1) * s4**2 + 2 * (d - 1) * s2**2 + (d - 2) * (d - 1) * c2 * s2**3)
                / d**2,
                (
                    (2 * d - 1)
                    + (d - 1) * s4**2
                    + 4 * (d - 1) ** 2 * s2**2
                    + 2 * (d - 1) * (d - 2) * c2 * s2**3
                    + (d - 1) * (d - 2) * (d - 3) * s2**4
                )
                / d**3,
            )
            ff = poisson_form_factors(t, d)
            got = (ff.f2, ff.f2_2t, ff.re_f2fc2t, ff.f4)
            assert np.max(np.abs(np.subtract(got, expected))) <= 1e-15, (d, t)


def _sampled_deviation(kind, d, t, n, rng, exact):
    # |sampled - exact| / stderr of each spectral function, in the field
    # order of FormFactorInputs
    est = empirical_form_factors(kind, d, t, n, rng)
    return np.abs(est.mean - dataclasses.astuple(exact)) / est.stderr


def test_poisson_form_factors_against_sampled_spectra():
    n = 10_000
    for d in (4, 8):
        for ti, t in enumerate(np.linspace(0.3, 6.0, 20)):
            rng = RngStream(404, 100 * d + ti)
            z = _sampled_deviation(EnsembleKind.POISSON, d, t, n, rng, poisson_form_factors(t, d))
            assert np.all(z <= 5), (d, t, z)


def test_poisson_bounds_invariants():
    for d in (2, 8):
        for t in np.linspace(0, 30, 100):
            ff = poisson_form_factors(t, d)
            assert 0.0 <= ff.f2 <= 1.0
            assert 0.0 <= ff.f4 <= 1.0


def _full_grid(d, tau):
    # the abscissae E = h j of ``_gue_blocks`` at tau, both signs, and the step h
    step = _gue_step(d, tau)
    j = math.ceil(_gue_window(d) / step)
    return step * np.arange(-j, j + 1), step


def test_gue_level_density_normalization():
    # the Hermite functions are orthonormal on the trapezoidal grid, so the
    # level density R1 = sum_k phi_k^2 integrates to d
    for d in (1, 4, 16, 64):
        e, step = _full_grid(d, 0.0)
        phi = _hermite_functions(e, d)
        assert np.max(np.abs(step * phi @ phi.T - np.eye(d))) <= 1e-12, d


def _mean_f(t, d, kind):
    # the ensemble mean of f(t): the normalized first moment of S
    return _moment_function(kind, d, float(t))((1,)) / d


def _set_partitions(items):
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for p in _set_partitions(rest):
        out.append([[first], *p])
        out += [[*p[:i], [first, *b], *p[i + 1 :]] for i, b in enumerate(p)]
    return out


def _brute_force_moment(kind, d, t, ks):
    # E[prod_a S(k_a t)] summed term by term: every set partition of the
    # factors and, for the GUE, every permutation of its blocks, with each
    # block G(tau) built directly, negative tau and tau = 0 included.
    block = functools.cache(lambda tau: _gue_blocks(tau, d))
    total = 0j
    for partition in _set_partitions(list(ks)):
        taus = [sum(b) * t for b in partition]
        if kind == EnsembleKind.POISSON:
            total += math.perm(d, len(taus)) * math.prod(sinc(2.0 * tau) for tau in taus)
            continue
        for perm in itertools.permutations(range(len(taus))):
            term = 1.0 + 0j
            for cycle in cycles_of(perm):
                product = functools.reduce(np.matmul, [block(taus[i]) for i in cycle])
                term *= (-1) ** (len(cycle) - 1) * np.trace(product)
            total += term
    return total


MULTIPLIERS = [(1, -1), (2, -2), (1, 1, -2), (1, 1, -1, -1), (1,), (2, -1, -1), (1, -1, 2, -2)]


def test_compiled_expansion_matches_brute_force_sum():
    for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_NUMERIC):
        for d in (1, 2, 3, 4, 8, 16):
            for t in (0.0, 1e-3, 0.7, 15.0, 100.0):
                moment = _moment_function(kind, d, t)
                for ks in MULTIPLIERS:
                    got = moment(ks) / d ** len(ks)
                    ref = _brute_force_moment(kind, d, t, ks) / d ** len(ks)
                    assert abs(got - ref) <= 1e-13, (kind, d, t, ks, got, ref)
                    if t == 0.0:
                        assert got == 1.0, (kind, d, ks, got)


def test_gue_expansion_size():
    # the four spectral functions need 17 distinct traces in 41 monomials
    expansions = [_expansion(EnsembleKind.GUE_NUMERIC, ks) for ks in MULTIPLIERS[:4]]
    assert sum(map(len, expansions)) == 41
    assert len({key for e in expansions for keys, _ in e for key in keys}) == 17


def test_gue_h_normalization_and_modes():
    assert _mean_f(0.0, 8, EnsembleKind.GUE_NUMERIC) == 1.0
    assert _mean_f(0.0, 8, EnsembleKind.GUE_LARGE_D) == 1.0
    with pytest.raises(DimensionError):
        _mean_f(1.0, 17, EnsembleKind.GUE_NUMERIC)


def test_gue_h_large_d_zero_at_first_bessel_root():
    t_zero = 3.8317059702 / 2
    assert abs(_mean_f(t_zero, 64, EnsembleKind.GUE_LARGE_D).real) < 1e-6


def test_gue_h_numeric_close_to_large_d():
    diffs = [
        abs(
            _mean_f(t, 16, EnsembleKind.GUE_NUMERIC).real
            - _mean_f(t, 16, EnsembleKind.GUE_LARGE_D).real
        )
        for t in np.linspace(0, 6, 25)
    ]
    assert max(diffs) <= 0.05


def test_gue_form_factors_at_zero():
    for mode in (EnsembleKind.GUE_NUMERIC, EnsembleKind.GUE_LARGE_D):
        ff = gue_form_factors(0.0, 16, mode)
        assert (ff.f2, ff.f2_2t, ff.re_f2fc2t, ff.f4) == (1.0, 1.0, 1.0, 1.0)
    est = empirical_form_factors(EnsembleKind.GUE_NUMERIC, 16, 0.0, 2000, RngStream(506))
    assert est.mean.tolist() == [1.0] * 4 and est.stderr.tolist() == [0.0] * 4


def test_gue_large_d_long_time_decay():
    ff = gue_form_factors(50.0, 64, EnsembleKind.GUE_LARGE_D)
    assert ff.f2 <= 1e-4


def test_gue_large_d_warns_below_16():
    with pytest.warns(UserWarning):
        gue_form_factors(1.0, 4, EnsembleKind.GUE_LARGE_D)


def test_gue_numeric_f2_in_range():
    for t in (0.5, 1.0, 3.0):
        f2 = gue_form_factors(t, 4, EnsembleKind.GUE_NUMERIC).f2
        assert -1e-8 <= f2 <= 1.0 + 1e-8


# h(t) and <|f(t)|^2> of GUE_NUMERIC from an independent method, adaptive
# Gauss-Kronrod quadrature of the Hermite-function integrals at relative
# tolerance 1e-8: (d, t, h(t), <|f(t)|^2>).
GUE_QUADRATURE_TABLE = [
    (2, 0.25, 0.9691136801771989, 0.954328078660786),
    (2, 1.0, 0.5841005873035539, 0.5000000000000001),
    (2, 2.5, -0.11790640527249116, 0.3846655492385557),
    (2, 6.0, -0.000987278432693413, 0.4999997334753544),
    (4, 0.25, 0.969083792977266, 0.9429100874032917),
    (4, 1.0, 0.5785640500668556, 0.37449214177636925),
    (4, 2.5, -0.1291056174893295, 0.11447758179401984),
    (4, 6.0, -0.026383866778325465, 0.21458524278349927),
    (8, 0.25, 0.9690763212632105, 0.9400555889062785),
    (8, 1.0, 0.5771843248536543, 0.34308375298179167),
    (8, 2.5, -0.13062753319811013, 0.041812758176150766),
    (8, 6.0, -0.03989543716121056, 0.05994029875589264),
    (16, 0.25, 0.9690744533400664, 0.939341964239359),
    (16, 1.0, 0.5768396686952417, 0.3352296966809024),
    (16, 2.5, -0.1309353519045583, 0.023349602811103688),
    (16, 6.0, -0.038159197915971055, 0.016303643003755197),
]


def test_gue_numeric_matches_quadrature_table():
    for d, t, h, f2 in GUE_QUADRATURE_TABLE:
        assert abs(_mean_f(t, d, EnsembleKind.GUE_NUMERIC) - h) <= 1e-10, (d, t)
        assert abs(gue_form_factors(t, d, EnsembleKind.GUE_NUMERIC).f2 - f2) <= 1e-10, (d, t)


def _laguerre1(n, x):
    # generalized Laguerre L_n^(1)(x), n >= 1, by the three-term recurrence
    prev, cur = 1.0, 2.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 2 - x) * cur - (k + 1) * prev) / (k + 1)
    return cur


def test_gue_h_against_laguerre_closed_form():
    # finite-d one-point function: <f(t)> = exp(-t^2/2d) L^(1)_{d-1}(t^2/d) / d
    for d in (2, 4, 8, 16):
        for t in np.linspace(0.1, 5.0, 50):
            exact = np.exp(-(t**2) / (2 * d)) * _laguerre1(d - 1, t**2 / d) / d
            assert abs(_mean_f(t, d, EnsembleKind.GUE_NUMERIC) - exact) <= 1e-12, (d, t)


def _jacobi_blocks(d, times):
    # P exp(-i t sqrt(2/d) Y) P with Y the position operator in the Hermite
    # basis, truncated to N functions and diagonalised once (Golub-Welsch).
    n = d + 40 + int(np.ceil(max(times) ** 2 / d))
    off = np.sqrt(np.arange(1, n) / 2.0)
    y, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return [(v[:d] * np.exp(-1j * t * np.sqrt(2.0 / d) * y)) @ v[:d].T for t in times]


def test_gue_block_against_jacobi_matrix():
    times = [0.1, 0.7, 2.0, 5.0, 12.0, 30.0]
    for d in (2, 4, 8, 16):
        refs = _jacobi_blocks(d, times)
        # one at a time, and as one grid that also holds tau = 0 and -tau
        grid = _gue_blocks([0.0, *times, *(-t for t in times)], d)
        assert np.array_equal(grid[0], np.eye(d))
        for i, (t, ref) in enumerate(zip(times, refs)):
            assert np.max(np.abs(_gue_blocks(t, d) - ref)) <= 1e-13, (d, t)
            assert np.max(np.abs(grid[1 + i] - ref)) <= 1e-13, (d, t)
            assert np.max(np.abs(grid[1 + len(times) + i] - ref.conj())) <= 1e-13, (d, t)
        assert np.array_equal(_gue_blocks(0.0, d), np.eye(d))


def test_gue_block_step_halving():
    for d in (2, 8, 16):
        for t in (100.0, 200.0):
            e, step = _full_grid(d, t)
            j = len(e) // 2
            fine = (step / 2) * np.arange(-2 * j, 2 * j + 1)
            phi = _hermite_functions(fine, d)
            halved = phi @ (step / 2 * np.exp(-1j * t * fine) * phi).T
            assert np.max(np.abs(_gue_blocks(t, d) - halved)) <= 1e-13, (d, t)


def _fields(ff):
    return [getattr(ff, f.name) for f in dataclasses.fields(ff)]


_GRIDS = [
    np.linspace(0.0, 15.0, 301),
    np.array([3.0, -0.5, 0.0, 1e-3, 250.0, 3.0, 40.0]),
    np.linspace(0.0, 2000.0, 41),
]


def test_a_time_alone_and_inside_a_grid_agree():
    # a grid shares one Hermite evaluation per slice of its times, on a step
    # set by the slice's largest time; a time alone has its own grid
    cases = [(EnsembleKind.GUE_NUMERIC, d) for d in (1, 2, 8, 16)]
    cases += [(EnsembleKind.POISSON, 16), (EnsembleKind.GUE_LARGE_D, 64)]
    for kind, d in cases:
        dims = BipartiteDims(2, max(2, d // 2))
        for times in _GRIDS:
            grid = _fields(averaged_form_factors(kind, times, d))
            c1 = averaged_time_coeffs(kind, times, dims).ct1
            for i, t in enumerate(times):
                alone = _fields(averaged_form_factors(kind, float(t), d))
                got = [v[i] for v in grid]
                if kind == EnsembleKind.GUE_NUMERIC:
                    # Re f(t)^2 f*(2t) changes sign and c1(0) = 0, so near
                    # their zeros the bound is absolute, at rounding level
                    assert np.allclose(got, alone, rtol=1e-12, atol=1e-15), (kind, d, t)
                    ref = averaged_time_coeffs(kind, float(t), dims).ct1
                    assert c1[i] == pytest.approx(ref, rel=1e-12, abs=1e-15), (kind, d, t)
                else:  # scalar sinc and h values: the same bits
                    assert got == alone, (kind, d, t)


def test_grid_is_exactly_one_at_t0():
    for kind, d in ((EnsembleKind.GUE_NUMERIC, 4), (EnsembleKind.GUE_NUMERIC, 16),
                    (EnsembleKind.POISSON, 8), (EnsembleKind.GUE_LARGE_D, 32)):
        for times in _GRIDS[:2]:
            ff = averaged_form_factors(kind, times, d)
            for v in _fields(ff):
                assert v.shape == times.shape
                assert np.all(v[times == 0.0] == 1.0), (kind, d)
            assert not ff.f2.flags.writeable  # shared by the cache


def _per_tau_block(tau, d):
    # a block on its own grid, built alone: the route the grid route replaced
    e, step = _full_grid(d, tau)
    phi = _hermite_functions(e, d)
    return np.einsum("kn,ln->kl", phi, step * np.exp(-1j * tau * e) * phi)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_grid_holds_no_more_memory_than_one_time_at_a_time():
    # The per-time route peaks on the largest block of a grid, G(2 t_max);
    # the grid route slices its (tau, node) phase array, so it may hold the
    # stacked blocks on top of that but never a whole grid's phases.
    d, times = 16, np.linspace(0.0, 1e4, 301)
    _form_factors.cache_clear()
    per_tau = _traced_peak(lambda: _per_tau_block(2.0 * times[-1], d))
    grid = _traced_peak(lambda: averaged_form_factors(EnsembleKind.GUE_NUMERIC, times, d))
    assert grid <= 1.5 * per_tau, (grid, per_tau)


def test_a_long_time_holds_bounded_memory():
    # one time's nodes are summed in pieces of at most WORD_CAP, so the peak
    # does not grow with t: whole-grid sums here take 122 and 255 MiB
    for kind, d in ((EnsembleKind.GUE_LARGE_D, 64), (EnsembleKind.GUE_NUMERIC, 2)):
        _form_factors.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            peak = _traced_peak(lambda: averaged_form_factors(kind, 1e6, d))
        assert peak <= 8 * 2**20, (kind, peak)


def test_a_time_past_the_cap_agrees_with_one_piece():
    # just past WORD_CAP nodes: the pieces' sum against one whole-grid sum
    for t in (16_400.0, -20_000.5):
        n = 2 * math.ceil(abs(t)) + 32
        assert n - 1 > WORD_CAP
        theta = np.pi / n * np.arange(1, n)
        whole = 2.0 / n * np.sum(np.sin(theta) ** 2 * np.cos(2.0 * t * np.cos(theta)))
        assert abs(bessel_j1_over_t(t) - whole) <= 1e-13, t
        assert bessel_j1_over_t(np.array([1.0, t]))[1] == bessel_j1_over_t(t)
    for d, tau in ((2, 2e4), (4, -3e4)):
        e, _ = _full_grid(d, tau)
        assert e.size // 2 + 1 > WORD_CAP
        got = _gue_blocks(tau, d)
        assert np.max(np.abs(got - _per_tau_block(tau, d))) <= 1e-13, (d, tau)


def test_gue_numeric_against_sampled_spectra():
    # tridiagonal-model spectra; test_sample_spectra_gue_law_matches_dense_sampler
    # checks that model against eigvalsh of dense GUE matrices
    n = 100_000
    for d in (4, 8):
        for ti, t in enumerate((0.5, 1.0, 2.0)):
            exact = gue_form_factors(t, d, EnsembleKind.GUE_NUMERIC)
            rng = RngStream(505, 10 * d + ti)
            z = _sampled_deviation(EnsembleKind.GUE_NUMERIC, d, t, n, rng, exact)
            assert np.all(z <= 5), (d, t, z)


def test_long_time_plateau():
    # mean |f|^2 over t in [50, 100] sits on the 1/d plateau
    grid = np.linspace(50, 100, 26)
    for d, mean_f2 in (
        (4, np.mean([poisson_form_factors(t, 4).f2 for t in grid])),
        (8, np.mean([poisson_form_factors(t, 8).f2 for t in grid])),
        (4, np.mean([gue_form_factors(t, 4, EnsembleKind.GUE_NUMERIC).f2 for t in grid])),
    ):
        assert 0.5 / d <= mean_f2 <= 2.0 / d


def test_sample_poisson_spectrum_stats():
    levels = sample_spectra(EnsembleKind.POISSON, 8, 12_500, RngStream(31))
    assert levels.min() >= -2.0 and levels.max() <= 2.0
    se = levels.std(ddof=1) / np.sqrt(levels.size)
    assert abs(levels.mean()) <= 5 * se


def test_sample_poisson_f2_matches_closed_form():
    d, n, t = 8, 10_000, 1.0
    z = _sampled_deviation(EnsembleKind.POISSON, d, t, n, RngStream(32), poisson_form_factors(t, d))
    assert z[0] <= 5, z


def test_sample_gue_spectrum_sorted_and_scaled():
    spectra = sample_spectra(EnsembleKind.GUE_NUMERIC, 16, 500, RngStream(34))
    assert np.all(np.diff(spectra, axis=1) >= 0)
    means = np.sum(spectra**2, axis=1) / 16
    se = means.std(ddof=1) / np.sqrt(len(means))
    assert abs(means.mean() - 1.0) <= 5 * se


def test_gue_level_repulsion_at_d2():
    n = 100_000
    gen = np.random.default_rng(35)
    gue = np.linalg.eigvalsh(sample_gue_hamiltonians(2, n, gen))
    s_gue = gue[:, 1] - gue[:, 0]
    poi = np.sort(gen.uniform(-2, 2, size=(n, 2)), axis=1)
    s_poi = poi[:, 1] - poi[:, 0]
    frac_gue = np.mean(s_gue < 0.05 * s_gue.mean())
    frac_poi = np.mean(s_poi < 0.05 * s_poi.mean())
    assert frac_gue < frac_poi


def test_averaged_time_coeffs_at_zero():
    dims = BipartiteDims(2, 8)
    for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_LARGE_D):
        c = averaged_time_coeffs(kind, 0.0, dims)
        assert (c.ct1, c.ct2, c.ct4) == (0.0, 0.0, 0.0)
        assert c.ct3 == 1.0


def test_averaged_time_coeffs_rejects_uniform():
    with pytest.raises(ValueError, match="no spectral moments"):
        averaged_time_coeffs(EnsembleKind.UNIFORM, 1.0, BipartiteDims(2, 2))


def test_form_factors_refuse_non_finite_times():
    for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_NUMERIC, EnsembleKind.GUE_LARGE_D):
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="time must be finite"):
                averaged_form_factors(kind, t, 8)
            with pytest.raises(ValueError, match="time must be finite"):
                averaged_time_coeffs(kind, t, BipartiteDims(2, 4))


def test_form_factors_refuse_bad_dimension_and_mode():
    with pytest.raises(DimensionError, match="d must be >= 1"):
        poisson_form_factors(1.0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # d is refused before the small-d warning
        for d in (0, True, 32.0):
            with pytest.raises(DimensionError, match="d must be >= 1 and an integer"):
                averaged_form_factors(EnsembleKind.GUE_LARGE_D, 1.0, d)
    with pytest.raises(ValueError, match="expects a GUE mode"):
        gue_form_factors(1.0, 4, EnsembleKind.POISSON)


def test_ensemble_kind_names():
    assert EnsembleKind("poi") is EnsembleKind.POISSON
    assert EnsembleKind("gue-large-d") is EnsembleKind.GUE_LARGE_D
    with pytest.raises(ValueError):
        EnsembleKind("goe")


def test_sinc_limit():
    assert sinc(0.0) == 1.0
    assert sinc(np.pi) == pytest.approx(0.0, abs=1e-16)
