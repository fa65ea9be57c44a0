import numpy as np
import pytest

from haarmoments.ensembles import _moment_function
from haarmoments.errors import DimensionError
from haarmoments.linalg import (
    WORD_CAP,
    BipartiteDims,
    EnsembleKind,
    RngStream,
    as_matrix,
    check_purity,
    haar_batches,
    hs_norm_sq,
    partial_trace_env,
    partial_trace_sys,
    sample_gue_hamiltonians,
    sample_spectra,
    sub_batches,
    trace_power,
)

from conftest import haar_unitaries, random_complex, random_hermitian, random_state


def test_bipartite_dims():
    dims = BipartiteDims(2, 3)
    assert dims.d == 6
    with pytest.raises(DimensionError):
        BipartiteDims(1, 3)


# The system-major flattening row = s * d_e + e is the one np.kron uses.
def test_tensor_product_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_product_diagonal():
    out = np.kron(np.diag([1.0, 2.0]), np.eye(2))
    assert np.array_equal(out, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_tensor_product_matches_index_expansion(gen):
    a = random_complex(gen, 3)
    b = random_complex(gen, 3)
    out = np.kron(a, b)
    # direct expansion oracle
    expect = np.empty((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    expect[i * 3 + k, j * 3 + l] = a[i, j] * b[k, l]
    assert np.allclose(out, expect, atol=0)
    assert abs(np.trace(out) - np.trace(a) * np.trace(b)) < 1e-12


def test_partial_trace_of_product_states(gen):
    dims = BipartiteDims(2, 3)
    rho_s = random_state(gen, 2)
    rho_e = random_state(gen, 3)
    full = np.kron(rho_s, rho_e)
    assert np.allclose(partial_trace_env(full, dims), rho_s, atol=1e-12)
    assert np.allclose(partial_trace_sys(full, dims), rho_e, atol=1e-12)


def test_partial_trace_identity():
    dims = BipartiteDims(3, 4)
    assert np.allclose(partial_trace_env(np.eye(12), dims), 4 * np.eye(3))
    assert np.allclose(partial_trace_sys(np.eye(12), dims), 3 * np.eye(4))


def test_partial_trace_duality(gen):
    # Tr(Tr_E M) = Tr(Tr_S M) = Tr M over many random Hermitian inputs
    for _ in range(200):
        ds = int(gen.integers(2, 5))
        de = int(gen.integers(2, 9))
        dims = BipartiteDims(ds, de)
        m = random_hermitian(gen, dims.d)
        tr = np.trace(m)
        scale = max(abs(tr), 1.0)
        assert abs(np.trace(partial_trace_env(m, dims)) - tr) < 1e-12 * scale
        assert abs(np.trace(partial_trace_sys(m, dims)) - tr) < 1e-12 * scale


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimensionError):
        partial_trace_env(np.eye(5), BipartiteDims(2, 3))
    with pytest.raises(DimensionError):
        partial_trace_sys(np.ones((2, 6, 5)), BipartiteDims(2, 3))


def test_partial_trace_of_a_stack(gen):
    # an (n, d, d) stack is traced matrix by matrix, to the same bits
    dims = BipartiteDims(2, 3)
    stack = np.stack([random_complex(gen, 6) for _ in range(5)])
    for ptrace in (partial_trace_env, partial_trace_sys):
        out = ptrace(stack, dims)
        assert out.shape == (5,) + ptrace(stack[0], dims).shape
        for k in range(5):
            assert np.array_equal(out[k], ptrace(stack[k], dims))


def test_hs_norm_values(gen):
    assert hs_norm_sq(np.eye(7)) == 7.0
    assert hs_norm_sq(np.zeros((4, 4))) == 0.0
    u = haar_unitaries(6, 1, RngStream(5))[0]
    assert abs(hs_norm_sq(u) - 6.0) < 1e-10


def test_hs_norm_unitary_invariance(gen):
    m = random_complex(gen, 5)
    u = haar_unitaries(5, 1, RngStream(6))[0]
    base = hs_norm_sq(m)
    assert abs(hs_norm_sq(u @ m @ u.conj().T) - base) <= 1e-10 * base


def test_trace_power():
    assert trace_power(np.eye(5), 3) == 5
    assert trace_power(np.diag([1.0, 2.0]), 2) == 5
    proj = np.zeros((4, 4), dtype=complex)
    proj[2, 2] = 1.0
    assert abs(trace_power(proj, 4) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        trace_power(np.eye(2), 5)


def test_haar_unitarity():
    u = haar_unitaries(5, 64, RngStream(7))
    prods = u.conj().swapaxes(-1, -2) @ u
    assert np.max(np.abs(prods - np.eye(5))) <= 1e-10


def test_haar_bit_identical_to_ginibre_expression():
    # each sub-batch of k matrices is its own draw A + 1j*B -> QR -> q * phases;
    # n runs over one sample, part of a sub-batch, one sub-batch and one more,
    # and two whole sub-batches and a remainder
    for d in (1, 2, 3, 4, 8, 16, 32, 64):
        step = max(1, WORD_CAP // (d * d))
        for n in (1, 40, step + 1, 2 * step + 3):
            gen = np.random.default_rng([81, d])
            expect = []
            for start in range(0, n, step):
                k = min(step, n - start)
                z = gen.standard_normal((k, d, d)) + 1j * gen.standard_normal((k, d, d))
                q, r = np.linalg.qr(z)
                diag = np.diagonal(r, axis1=-2, axis2=-1)
                expect.append(q * (diag.conj() / np.abs(diag))[:, None, :])
            got = list(haar_batches(d, n, np.random.default_rng([81, d])))
            assert len(got) == len(expect), (d, n)
            for a, b in zip(got, expect):
                assert np.array_equal(a, b), (d, n)


def test_sub_batches_cover_the_samples_in_order():
    for n, d in ((0, 4), (1, 32), (65, 32), (2053, 16), (5, 256)):
        step = max(1, WORD_CAP // (d * d))
        batches = sub_batches(n, d)
        assert [i for s in batches for i in range(n)[s]] == list(range(n)), (n, d)
        assert all(0 < s.stop - s.start <= step for s in batches), (n, d)


def test_as_matrix_checks_the_size_when_given():
    assert as_matrix(np.eye(3)).dtype == complex
    assert np.array_equal(as_matrix(np.eye(3), 3), np.eye(3))
    with pytest.raises(DimensionError, match="matrix dim 3 != d = 2"):
        as_matrix(np.eye(3), 2)
    with pytest.raises(DimensionError, match="square"):
        as_matrix(np.ones((2, 3)), 2)


def test_check_purity_range():
    for p in (0.25 - 1e-13, 0.25, 0.5, 1.0, 1.0 + 1e-13):
        check_purity("p", p, 4)
    for p in (0.2, 1.01, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            check_purity("p", p, 4)


def test_haar_reproducible():
    a = haar_unitaries(3, 10, RngStream(123, 4))
    b = haar_unitaries(3, 10, RngStream(123, 4))
    assert np.array_equal(a, b)


def test_haar_first_moments():
    # entries have mean 0 and mean square 1/d
    d, n = 3, 100_000
    u = haar_unitaries(d, n, RngStream(8))
    e00 = u[:, 0, 0]
    se = e00.std(ddof=1) / np.sqrt(n)
    assert abs(e00.mean()) <= 5 * se
    a2 = np.abs(e00) ** 2
    se2 = a2.std(ddof=1) / np.sqrt(n)
    assert abs(a2.mean() - 1 / d) <= 5 * se2


def test_haar_left_invariance():
    # entry statistics of V U match those of U for a fixed unitary V
    d, n = 3, 100_000
    v = haar_unitaries(d, 1, RngStream(9))[0]
    u = haar_unitaries(d, n, RngStream(10))
    w = haar_unitaries(d, n, RngStream(11))
    vu = v @ u
    for stat in (lambda x: x[:, 0, 0].real, lambda x: np.abs(x[:, 0, 0]) ** 2):
        a, b = stat(vu), stat(w)
        se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(n)
        assert abs(a.mean() - b.mean()) <= 5 * se


def test_gue_hermitian_and_scale():
    h = sample_gue_hamiltonians(32, 1000, RngStream(12))
    assert np.max(np.abs(h - h.conj().swapaxes(-1, -2))) <= 1e-12
    tr2 = np.einsum("sij,sji->s", h, h).real / 32
    se = tr2.std(ddof=1) / np.sqrt(len(tr2))
    assert abs(tr2.mean() - 1.0) <= 5 * se


def test_gue_spectral_extent():
    h = sample_gue_hamiltonians(256, 4, RngStream(13))
    ev = np.linalg.eigvalsh(h)
    assert ev.min() > -2.5 and ev.max() < 2.5


def test_sample_spectra_matches_inline_draws():
    # bit for bit the inline draws it replaces in the estimators
    for seed in (3, 4):
        poi = sample_spectra(EnsembleKind.POISSON, 6, 50, np.random.default_rng(seed))
        assert np.array_equal(poi, np.random.default_rng(seed).uniform(-2.0, 2.0, size=(50, 6)))


def _chunked_levels(draw, n, seed):
    # levels drawn in chunks, so the dense route stays small at d = 16
    gen = np.random.default_rng(seed)
    return np.concatenate([draw(4096, gen) for _ in range(n // 4096)])


def _gue_statistics(levels):
    d = levels.shape[1]
    stats = {"largest": levels[:, -1], "sum_sq": np.sum(levels**2, axis=1) / d}
    if d > 1:
        stats["first_gap"] = levels[:, 1] - levels[:, 0]
    for t in (0.5, 1.0, 2.0):
        f = np.exp(-1j * levels * t).mean(axis=1)
        stats[f"|f({t})|^2"] = np.abs(f) ** 2
        stats[f"re f({t})"] = f.real
        stats[f"im f({t})"] = f.imag
    return stats


def _mean_se(vals):
    return vals.mean(), vals.std(ddof=1) / np.sqrt(len(vals))


@pytest.mark.parametrize("d, n", [(1, 98_304), (2, 98_304), (4, 98_304), (16, 20_480)])
def test_sample_spectra_gue_law_matches_dense_sampler(d, n):
    # the tridiagonal model against eigvalsh of dense GUE matrices on an
    # independent stream, statistic by statistic at 5 sigma
    tri = _chunked_levels(lambda k, gen: sample_spectra(EnsembleKind.GUE_NUMERIC, d, k, gen), n, [61, d])
    dense = _chunked_levels(lambda k, gen: np.linalg.eigvalsh(sample_gue_hamiltonians(d, k, gen)), n, [62, d])
    assert tri.shape == (n, d)
    assert np.all(np.diff(tri, axis=1) >= 0)
    tri_stats, dense_stats = _gue_statistics(tri), _gue_statistics(dense)
    for name, vals in tri_stats.items():
        (m_tri, se_tri), (m_dense, se_dense) = _mean_se(vals), _mean_se(dense_stats[name])
        assert abs(m_tri - m_dense) <= 5 * np.hypot(se_tri, se_dense), (d, name)
    # <f(t)> of the tridiagonal draws against the exact finite-d mean
    for t in (0.5, 1.0, 2.0):
        exact = _moment_function(EnsembleKind.GUE_NUMERIC, d, t)((1,)) / d
        for name, value in ((f"re f({t})", exact.real), (f"im f({t})", exact.imag)):
            m, se = _mean_se(tri_stats[name])
            assert abs(m - value) <= 5 * se, (d, name)


def test_sample_spectra_gue_reproducible_and_d1():
    a = sample_spectra(EnsembleKind.GUE_NUMERIC, 5, 40, RngStream(71, 2))
    b = sample_spectra(EnsembleKind.GUE_NUMERIC, 5, 40, RngStream(71, 2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_spectra(EnsembleKind.GUE_NUMERIC, 5, 40, RngStream(71, 3)))
    # at d = 1 the model is the one N(0, 1) diagonal entry; no chi variate is drawn
    one = sample_spectra(EnsembleKind.GUE_NUMERIC, 1, 40, np.random.default_rng(72))
    assert np.array_equal(one, np.random.default_rng(72).standard_normal((40, 1)))
    with pytest.raises(DimensionError):
        sample_spectra(EnsembleKind.GUE_NUMERIC, 0, 40, RngStream(1))


def test_matrix_samplers_refuse_d0():
    # haar_batches refuses at the call, not at the first next()
    for sampler in (haar_batches, sample_gue_hamiltonians):
        with pytest.raises(DimensionError, match="d must be >= 1"):
            sampler(0, 10, RngStream(1))


def test_sample_spectra_refuses_d0_for_every_kind():
    for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_NUMERIC):
        with pytest.raises(DimensionError):
            sample_spectra(kind, 0, 40, RngStream(1))


def test_sample_spectra_rejects_kinds_without_spectra():
    for kind in (EnsembleKind.UNIFORM, EnsembleKind.GUE_LARGE_D):
        with pytest.raises(ValueError):
            sample_spectra(kind, 4, 10, RngStream(1))
