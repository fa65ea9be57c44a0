import dataclasses
import functools
import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from haarmoments import ensembles
from haarmoments.applications import (
    ThermalizationParams,
    open_thermalization,
    purity_evolution,
    uniform_purity,
)
from haarmoments.closed_forms import haar_form_factors
from haarmoments.ensembles import (
    FUNCTIONS,
    GUE_NUMERIC_MAX_DIM,
    EnsembleKind,
    _expansion,
    _form_factors,
    _gue_blocks,
    _moment_function,
    _monomials,
    _split,
    _table,
    _traces,
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
    haar_batches,
    sample_gue_hamiltonians,
    sample_spectra,
)
from haarmoments.mc import accumulate_chunks, empirical_form_factors
from haarmoments.validate import sigma_ratio
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
    # order of FormFactorInputs.  Callers gate z <= 5, not sigma_ratio <= 1:
    # z rounds |m - a| / stderr, whose accepted set differs from the ratio's
    # within one rounding of the bound, so the form is kept as it was
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


# A reference for the GUE blocks, independent of their closed form: the
# integrals G(tau)_kl = int phi_k phi_l exp(-i E tau) dE summed on a
# trapezoidal grid of scaled Hermite functions phi_k.


def _gue_window(d):
    # Semicircle support [-2, 2] plus room for the Gaussian tails of the
    # highest Hermite function, whose square is below double precision there.
    return 2.0 + 12.0 / math.sqrt(d)


def _gue_step(d, tau):
    # The integrands are entire and decay like a Gaussian, so the trapezoidal
    # rule converges geometrically once the Nyquist frequency 2 pi / h exceeds
    # their bandwidth: |tau| from the phase, 2d from the highest pair of
    # Hermite functions and 12 sqrt(d) for the tails (Trefethen & Weideman,
    # SIAM Rev. 56, 385 (2014)).
    return 2.0 * math.pi / (abs(tau) + 2.0 * d + 12.0 * math.sqrt(d))


def _hermite_functions(e, d):
    # phi_0..phi_{d-1} at abscissae e, shape (d, len(e)): the stable
    # recurrence on the normalized functions, the weight exp(-d E^2 / 4)
    # carried inside each value
    y = np.sqrt(d / 2.0) * np.asarray(e, dtype=float)
    out = np.empty((d, y.size))
    out[0] = (d / 2.0) ** 0.25 * np.pi**-0.25 * np.exp(-0.5 * y * y)
    if d > 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(2, d):
        out[k] = math.sqrt(2.0 / k) * y * out[k - 1] - math.sqrt((k - 1) / k) * out[k - 2]
    return out


def _full_grid(d, tau):
    # the abscissae E = h j at tau, both signs, and the step h
    step = _gue_step(d, tau)
    j = math.ceil(_gue_window(d) / step)
    return step * np.arange(-j, j + 1), step


def _per_tau_block(tau, d):
    # one block on its own grid
    e, step = _full_grid(d, tau)
    phi = _hermite_functions(e, d)
    return np.einsum("kn,ln->kl", phi, step * np.exp(-1j * tau * e) * phi)


def test_gue_level_density_normalization():
    # the Hermite functions are orthonormal on the trapezoidal grid, so the
    # level density R1 = sum_k phi_k^2 integrates to d
    for d in (1, 4, 16, 64):
        e, step = _full_grid(d, 0.0)
        phi = _hermite_functions(e, d)
        assert np.max(np.abs(step * phi @ phi.T - np.eye(d))) <= 1e-12, d


def _mean_f(t, d, kind):
    # the ensemble mean of f(t): the normalized first moment of S
    return _moment_function(kind, d, (float(t),), ((1,),))[0, 0] / d


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
                moments = _moment_function(kind, d, (t,), tuple(MULTIPLIERS))[:, 0]
                for ks, moment in zip(MULTIPLIERS, moments):
                    got = moment / d ** len(ks)
                    ref = _brute_force_moment(kind, d, t, ks) / d ** len(ks)
                    assert abs(got - ref) <= 1e-13, (kind, d, t, ks, got, ref)
                    if t == 0.0:
                        assert got == 1.0, (kind, d, ks, got)


def test_gue_expansion_size():
    # the four spectral functions need 17 distinct traces in 41 monomials
    expansions = [_expansion(EnsembleKind.GUE_NUMERIC, ks) for ks in MULTIPLIERS[:4]]
    assert sum(map(len, expansions)) == 41
    assert len({key for e in expansions for keys, _ in e for key in keys}) == 17


def test_split_traces_equal_the_full_products():
    # Random complex symmetric blocks with B(-k) = conj B(k), as G is: each
    # trace key's split at its chosen rotation is the trace of the product.
    keys = _table(EnsembleKind.GUE_NUMERIC, FUNCTIONS)[0]
    gen = np.random.default_rng(28)
    for d in (1, 2, 5, 16):
        raw = gen.normal(size=(2, 3, d, d)) + 1j * gen.normal(size=(2, 3, d, d))
        blocks = dict(zip((1, 2), (raw + raw.swapaxes(-1, -2)) / (2.0 * d)))

        def block(k):
            return blocks[k] if k > 0 else blocks[-k].conj()

        for key, got in zip(keys, _traces(keys, blocks, d)):
            full = functools.reduce(np.matmul, [block(k) for k in key], np.eye(d))
            ref = np.trace(full, axis1=-2, axis2=-1)
            assert np.max(np.abs(got - ref)) <= 1e-13, (d, key, _split(key))


def test_a_gue_grid_builds_two_block_products(monkeypatch):
    # G(t) and G(2t) come from one _gue_blocks call, and every trace of the
    # four functions from G(t) G(t) and G(t) conj G(t), each stacked over the grid
    products, blocks = [], []
    product, build = ensembles._product, ensembles._gue_blocks
    monkeypatch.setattr(ensembles, "_product", lambda a, b: products.append(a.shape) or product(a, b))
    monkeypatch.setattr(ensembles, "_gue_blocks", lambda taus, d: blocks.append(d) or build(taus, d))
    _form_factors.cache_clear()
    times = np.linspace(0.0, 15.0, 31)
    averaged_form_factors(EnsembleKind.GUE_NUMERIC, times, 16)
    assert products == [(31, 16, 16)] * 2
    assert blocks == [16]


def test_time_keyed_caches_stay_bounded():
    # every distinct time is a new key: 10^4 of them fill neither cache past its bound
    for t in np.linspace(0.0, 50.0, 10_000):
        averaged_form_factors(EnsembleKind.POISSON, float(t), 4)
    for cache in (_form_factors, _monomials):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, info


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
    n = d + 40 + int(np.ceil(max(map(abs, times)) ** 2 / d))
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
    # the closed form against the reference grid at half its step
    for d in (2, 8, 16):
        for t in (100.0, 200.0):
            e, step = _full_grid(d, t)
            j = len(e) // 2
            fine = (step / 2) * np.arange(-2 * j, 2 * j + 1)
            phi = _hermite_functions(fine, d)
            halved = phi @ (step / 2 * np.exp(-1j * t * fine) * phi).T
            assert np.max(np.abs(_gue_blocks(t, d) - halved)) <= 1e-13, (d, t)


def test_gue_blocks_over_every_dimension_and_time():
    # the closed form at every d of GUE_NUMERIC on [-200, 200]: against the
    # Jacobi matrix to |tau| = 30 and the trapezoid grid beyond, with the
    # exact identity at 0 and the exact zero parts of its parity
    taus = np.concatenate([[0.0, 1e-9, -1e-9], np.linspace(-200.0, 200.0, 161)])
    near = np.abs(taus) <= 30.0
    for d in range(1, GUE_NUMERIC_MAX_DIM + 1):
        got = _gue_blocks(taus, d)
        refs = np.empty_like(got)
        refs[near] = _jacobi_blocks(d, taus[near])
        refs[~near] = [_per_tau_block(tau, d) for tau in taus[~near]]
        assert np.max(np.abs(got - refs)) <= 1e-13, d
        assert np.array_equal(got[0], np.eye(d))
        odd = np.add.outer(np.arange(d), np.arange(d)) % 2 == 1
        assert np.all(got.imag[:, ~odd] == 0.0) and np.all(got.real[:, odd] == 0.0), d


def test_gue_block_cutoff_keeps_its_bound():
    # |G_kl| <= 2^l (1 + x)^l exp(-x/2) for k <= l and x = tau^2 / d, which is
    # below 1e-260 at the cutoff x = 1500, past which the block is zero; the
    # weight exp(-x/2) underflows there, not before
    x = np.concatenate([np.linspace(0.0, 1500.0, 61), [1499.999]])
    for d in range(1, GUE_NUMERIC_MAX_DIM + 1):
        order = np.maximum.outer(np.arange(d), np.arange(d))
        log_bound = order * np.log(2.0 * (1.0 + x[:, None, None])) - x[:, None, None] / 2
        bound = np.exp(log_bound) * (1.0 + 1e-12)  # x is rounded on its way through tau
        assert np.all(np.abs(_gue_blocks(np.sqrt(x * d), d)) <= bound), d
        assert (d - 1) * math.log(2.0 * 1501.0) - 750.0 < math.log(1e-260), d
        assert _gue_blocks(math.sqrt(1480.0 * d), d)[0, 0] > 0.0, d
        past = np.sqrt(1500.0 * d) * np.array([1.0 + 1e-12, -1.0 - 1e-12, 10.0, 1e300])
        assert np.array_equal(_gue_blocks(past, d), np.zeros((4, d, d))), d


def test_gue_numeric_long_times_sit_on_the_plateau():
    # past the cutoff every block is zero, so the four functions take their
    # t -> infinity values exactly, at a cost that does not grow with t
    start = time.perf_counter()
    for d in range(1, GUE_NUMERIC_MAX_DIM + 1):
        plateau = [1 / d, 1 / d, 1 / d**2, (2 * d - 1) / d**3]
        for t in (1e4, -1e8, 1e8, 1e300):
            got = _fields(averaged_form_factors(EnsembleKind.GUE_NUMERIC, t, d))
            assert got == pytest.approx(plateau, rel=1e-15, abs=0.0), (d, t)
    assert time.perf_counter() - start < 1.0


def _fields(ff):
    return [getattr(ff, f.name) for f in dataclasses.fields(ff)]


_GRIDS = [
    np.linspace(0.0, 15.0, 301),
    np.array([3.0, -0.5, 0.0, 1e-3, 250.0, 3.0, 40.0]),
    np.linspace(0.0, 2000.0, 41),
]


def test_a_time_alone_and_inside_a_grid_agree():
    # a grid takes its GUE traces from block products stacked over its times,
    # so they round differently from a time alone; sinc and h keep every bit
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


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_grid_holds_no_more_memory_than_one_time_at_a_time():
    # The grid reference peaks on the largest block of a grid, G(2 t_max),
    # alone; the closed form holds the whole grid's (k, p, tau) values and
    # stacked blocks in less.
    d, times = 16, np.linspace(0.0, 1e4, 301)
    _form_factors.cache_clear()
    per_tau = _traced_peak(lambda: _per_tau_block(2.0 * times[-1], d))
    grid = _traced_peak(lambda: averaged_form_factors(EnsembleKind.GUE_NUMERIC, times, d))
    assert grid <= 1.5 * per_tau, (grid, per_tau)


def test_a_long_time_holds_bounded_memory():
    # the peak does not grow with t: h(t) sums one time's nodes in pieces of
    # at most WORD_CAP, and past its cutoff a GUE block is zero.  Whole-grid
    # sums here took 122 and 255 MiB.
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
    assert sigma_ratio(0.0, levels.mean(), se) <= 1


def test_sample_poisson_f2_matches_closed_form():
    d, n, t = 8, 10_000, 1.0
    z = _sampled_deviation(EnsembleKind.POISSON, d, t, n, RngStream(32), poisson_form_factors(t, d))
    assert z[0] <= 5, z


def test_sample_gue_spectrum_sorted_and_scaled():
    spectra = sample_spectra(EnsembleKind.GUE_NUMERIC, 16, 500, RngStream(34))
    assert np.all(np.diff(spectra, axis=1) >= 0)
    means = np.sum(spectra**2, axis=1) / 16
    se = means.std(ddof=1) / np.sqrt(len(means))
    assert sigma_ratio(1.0, means.mean(), se) <= 1


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


def test_uniform_spectral_functions_are_the_haar_constants():
    # UNIFORM is the CUE spectral law: floats at one time, arrays of the
    # times' shape on a grid, the same constants at every time; d = 1 is refused
    ff = averaged_form_factors(EnsembleKind.UNIFORM, 1.0, 4)
    assert dataclasses.astuple(ff) == (1 / 16, 2 / 16, 0.0, 2 / 256)
    assert {type(v) for v in dataclasses.astuple(ff)} == {float}
    times = np.linspace(0.0, 1e8, 6).reshape(2, 3)
    grid = averaged_form_factors(EnsembleKind.UNIFORM, times, 4)
    for value, row in zip(dataclasses.astuple(ff), dataclasses.astuple(grid)):
        assert row.shape == times.shape and (row == value).all()
    with pytest.raises(DimensionError, match="d must be >= 2"):
        haar_form_factors(1)
    with pytest.raises(DimensionError, match="d must be >= 2"):
        averaged_form_factors(EnsembleKind.UNIFORM, 1.0, 1)
    # the purity curve is flat at the uniform_purity mean, to the last bit
    for dims in map(BipartiteDims, (2, 2, 3, 5), (2, 7, 14, 768)):
        mean, _ = uniform_purity(1.0, dims)
        for p0 in (1.0 / dims.d_s, 0.6, 1.0):
            traj = purity_evolution(EnsembleKind.UNIFORM, dims, p0, times.ravel())
            assert (traj.values == mean).all(), (dims, p0)


def test_uniform_form_factors_against_sampled_haar_unitaries():
    # the sampled twin of the CUE constants: f = Tr U / d and f(2) = Tr U^2 / d
    # of Haar draws, n = 20000 per d on stream (411, d), gated at 5 sigma
    def chunk(gen, count, d):
        u = np.concatenate(list(haar_batches(d, count, gen)))
        f, f_2 = np.trace(u, axis1=1, axis2=2) / d, np.einsum("sij,sji->s", u, u) / d
        f2 = f.real**2 + f.imag**2
        return f2, f_2.real**2 + f_2.imag**2, (f * f * f_2.conj()).real, f2**2

    for d in (2, 3, 4, 8):
        moments = accumulate_chunks(functools.partial(chunk, d=d), 20_000, RngStream(411, d))
        exact = dataclasses.astuple(averaged_form_factors(EnsembleKind.UNIFORM, 0.7, d))
        for est, value in zip((m.estimate() for m in moments), exact):
            assert sigma_ratio(value, est.mean, est.stderr) <= 1, (d, est.mean, value)


def test_an_empty_grid_gives_empty_curves():
    # d = 16 is inside GUE_NUMERIC's range and at GUE_LARGE_D's warning bound
    dims = BipartiteDims(4, 4)
    for kind in EnsembleKind:
        for times in (np.array([]), np.zeros((2, 0))):
            values = [
                *_fields(averaged_form_factors(kind, times, dims.d)),
                *dataclasses.astuple(averaged_time_coeffs(kind, times, dims)),
                purity_evolution(kind, dims, 1.0, times).values,
                open_thermalization(ThermalizationParams(dims, 1.0 / dims.d), kind, times).values,
            ]
            assert [v.shape for v in values] == [times.shape] * len(values), kind
        assert averaged_form_factors(kind, [], dims.d).f2.shape == (0,), kind


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
