import os
import threading
import tracemalloc

import numpy as np
import pytest

from haarmoments.applications import gibbs_purity_mc, purity_evolution, uniform_purity
from haarmoments.closed_forms import form_factor_inputs, general_average, uniform_average
from haarmoments.ensembles import EnsembleKind
from haarmoments.errors import DimensionError
from haarmoments.linalg import (
    BipartiteDims,
    RngStream,
    as_matrix,
    complex_normal,
    haar_batches,
    hs_norm_sq,
    partial_trace_env,
    real_embedding,
    sample_spectra,
    sub_batches,
    _haar_from_ginibre,
)
from haarmoments import mc
from haarmoments.mc import (
    CHUNK,
    GEMM_CAP,
    WORD_CAP,
    McEstimate,
    accumulate_chunks,
    empirical_fixed_spectrum,
    empirical_form_factors,
    empirical_moments,
    empirical_purity,
    empirical_reduced_norm,
    empirical_thermal_distance,
    product_state,
    schmidt_state,
    word_sizes,
    worker_count,
)
from haarmoments.validate import sigma_ratio
from haarmoments.weingarten import fourth_moment_closed

from conftest import haar_unitaries, random_complex, random_hermitian, random_state


def test_empirical_moment_zero_matrices():
    (est,) = empirical_moments([[np.zeros((3, 3))] * 3], 3, 2048, RngStream(1))
    assert np.all(est.mean == 0)
    assert np.all(est.stderr == 0)


def test_empirical_moment_second_and_fourth_order(gen):
    d = 3
    x = random_hermitian(gen, d)
    (est,) = empirical_moments([[x]], d, 20_000, RngStream(21))
    target = np.trace(x) / d * np.eye(d)
    assert sigma_ratio(target, est.mean, est.stderr, 1e-12) <= 1
    xs = [random_hermitian(gen, d) for _ in range(3)]
    (est4,) = empirical_moments([xs], d, 20_000, RngStream(22))
    closed = fourth_moment_closed(*xs, d)
    assert sigma_ratio(closed, est4.mean, est4.stderr, 1e-12) <= 1


def _real_product(a, b):
    # the word kernel's product: a real GEMM on a's float view and R(b)
    return (a.view(float) @ real_embedding(b)).view(complex)


def _moments_one_pattern_at_a_time(patterns, d, n, rng, workers, product=_real_product):
    # reference: each pattern's word built on its own, one pattern after
    # another, in chunks of the word kernel's size at d
    mats = [[as_matrix(x) for x in xs] for xs in patterns]

    def chunk(gen, count):
        (u,) = haar_batches(d, count, gen)
        uh = u.conj().swapaxes(-1, -2)
        for xs in mats:
            w = u
            for k, x in enumerate(xs):
                w = product(product(w, x), uh if k % 2 == 0 else u)
            yield w.view(float)

    estimates = []
    chunk_size, _ = word_sizes(d)
    for moments in accumulate_chunks(chunk, n, rng, workers=workers, chunk_size=chunk_size):
        se = moments.estimate().stderr.reshape(d, d, 2)
        estimates.append(McEstimate(moments.mean.view(complex), np.hypot(se[..., 0], se[..., 1]), n))
    return estimates


def test_stacked_words_bit_identical_to_one_pattern_at_a_time(gen):
    n = 2 * CHUNK + 5
    _, per_block = word_sizes(4)
    cases = (
        (1, [[random_complex(gen, 1) for _ in range(k)] for k in (3, 1, 5)]),
        (3, [[random_complex(gen, 3) for _ in range(k)] for k in (1, 3, 5, 3, 1)]),
        # three blocks of one length
        (4, [[random_complex(gen, 4) for _ in range(3)] for _ in range(2 * per_block + 1)]),
        # the chunk is bounded by GEMM_CAP here, not by WORD_CAP
        (16, [[random_complex(gen, 16) for _ in range(k)] for k in (3, 1, 3)]),
    )
    for d, patterns in cases:
        for workers in (1, 2):
            stacked = empirical_moments(patterns, d, n, RngStream(12, d), workers=workers)
            looped = _moments_one_pattern_at_a_time(patterns, d, n, RngStream(12, d), workers)
            assert len(stacked) == len(looped) == len(patterns)
            for a, b in zip(stacked, looped):
                assert a.n == b.n == n
                assert np.array_equal(a.mean, b.mean), (d, workers)
                assert np.array_equal(a.stderr, b.stderr), (d, workers)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 32])
def test_word_means_match_complex_products(gen, d):
    # an oracle that shares no code with the kernel's product: words built
    # by complex matmul, one pattern at a time
    n = 2 * word_sizes(d)[0] + 3
    patterns = [[random_complex(gen, d) for _ in range(k)] for k in (3, 1, 3, 5)]
    stacked = empirical_moments(patterns, d, n, RngStream(14, d))
    plain = _moments_one_pattern_at_a_time(patterns, d, n, RngStream(14, d), None, np.matmul)
    for a, b in zip(stacked, plain):
        assert np.max(np.abs(a.mean - b.mean)) <= 1e-13 * np.max(np.abs(b.mean)), d


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 32])
def test_word_estimate_independent_of_the_other_patterns(gen, d):
    # more than three chunks, the last one partial where a chunk holds more than one sample
    n = 3 * word_sizes(d)[0] + 7
    alone = [random_complex(gen, d) for _ in range(3)]
    # eight patterns of length 3, so at d = 32 (7 patterns per block) they
    # fill two blocks
    others = [[random_complex(gen, d) for _ in range(k)] for k in (1, 5, 3, 3, 7, 1, 3, 5, 3, 3, 3, 3)]
    together = others[:4] + [alone] + others[4:]
    (single,) = empirical_moments([alone], d, n, RngStream(13))
    mixed = empirical_moments(together, d, n, RngStream(13))[4]
    assert np.array_equal(single.mean, mixed.mean), d
    assert np.array_equal(single.stderr, mixed.stderr), d


# chunks per word-kernel task: whole chunks up to min(CHUNK, WORD_CAP // (4 d^2))
# samples where the Haar factor is Gram-Schmidt (d <= 8), one chunk above
TASK_CHUNKS = {1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 8: 2, 16: 1, 32: 1}


@pytest.mark.parametrize("d", sorted(TASK_CHUNKS))
def test_multi_chunk_tasks_bit_identical_to_one_chunk_per_task(gen, d, monkeypatch):
    # each chunk keeps its generator, count and moments inside a task that
    # factors the Haar draws of all its chunks at once; the reference draws
    # and factors every chunk alone.  n leaves both the last chunk (where it
    # holds more than one sample) and the last task (where it holds more
    # than one chunk) partial
    span, (size, _) = TASK_CHUNKS[d], word_sizes(d)
    chunks = 2 * span + max(1, span - 1)
    n = (chunks - 1) * size + (size + 1) // 2
    patterns = [[random_complex(gen, d) for _ in range(k)] for k in (3, 1, 5)]
    tasks = []

    def counted(d, n, rng):
        tasks.append(n)
        return haar_batches(d, n, rng)

    monkeypatch.setattr(mc, "haar_batches", counted)
    for workers in (1, 2):
        tasks.clear()
        shared = empirical_moments(patterns, d, n, RngStream(15, d), workers=workers)
        starts = range(0, n, span * size)
        assert sorted(tasks) == sorted(min(span * size, n - start) for start in starts), d
        alone = _moments_one_pattern_at_a_time(patterns, d, n, RngStream(15, d), workers)
        for a, b in zip(shared, alone, strict=True):
            assert np.array_equal(a.mean, b.mean), (d, workers)
            assert np.array_equal(a.stderr, b.stderr), (d, workers)


def test_word_task_working_memory_is_bounded(gen, monkeypatch):
    # traced peak of one word task on one worker, in WORD_CAP complex
    # entries.  Besides the two word buffers and the R of the pattern stack
    # (and the stack it is built from), the task draws, factors and embeds,
    # and holds its chunks' mean and m2, in at most 1.75 WORD_CAP (1.55
    # measured, at d = 32)
    monkeypatch.setenv("HAARMOMENTS_THREADS", "1")
    unit = WORD_CAP * np.dtype(complex).itemsize
    for d in (2, 4, 8, 16, 32):
        size, per_block = word_sizes(d)
        n = max(2, TASK_CHUNKS[d] * size)
        length = 3
        patterns = [[random_complex(gen, d) for _ in range(length)] for _ in range(per_block)]
        # entries per pattern and d^2: two buffers of `size` samples, and the
        # R of the operators and their stack
        parts = per_block * d * d * (2 * size + 3 * length)
        empirical_moments(patterns, d, n, RngStream(16))
        tracemalloc.start()
        try:
            empirical_moments(patterns, d, n, RngStream(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (parts / WORD_CAP + 1.75) * unit, (d, peak / unit)


def _moments_of_a_copy(x, variance):
    # McMoments.of's sums on a deviation array of its own, x left as it is
    n = x.shape[0]
    dev = x - x[0]
    shift = dev.sum(axis=0) / n
    dev -= shift
    power = dev * dev
    sums = [power.sum(axis=0)]
    for _ in range(2 if variance else 0):
        power *= dev
        sums.append(power.sum(axis=0))
    return x[0] + shift, sums


@pytest.mark.parametrize("variance", [False, True])
def test_in_place_moments_equal_a_reduction_of_a_copy(variance):
    # McMoments.of overwrites the samples it reduces; its moments carry the
    # bits of the same sums on a copy, a large common offset included
    for offset in (0.0, 1e9):
        for shape in ((1024, 4, 8), (455,), (1, 3)):
            x = offset + np.random.default_rng([17, len(shape)]).standard_normal(shape)
            mean, sums = _moments_of_a_copy(x, variance)
            moments = mc.McMoments.of(x.copy(), variance)
            assert moments.n == shape[0]
            assert np.array_equal(moments.mean, mean), (offset, shape)
            got = [moments.m2, moments.m3, moments.m4][: len(sums)]
            for a, b in zip(got, sums, strict=True):
                assert np.array_equal(a, b), (offset, shape)
            assert (moments.m3 is None) == (not variance)


def test_word_sizes_keep_the_blas_rule():
    # OpenBLAS threads a zgemm from m n k = 2^16 on (see mc.GEMM_CAP); past
    # d = 32 a single sample's d x d product is already above the cap, so
    # the chunk holds one sample there.  A chunk also fits in one sub-batch,
    # so its unitaries are one stack of haar_batches
    for d in range(1, 129):
        samples, per_block = word_sizes(d)
        assert 1 <= samples <= max(1, WORD_CAP // d**2), d
        assert samples * d**3 <= max(GEMM_CAP, d**3), d
        assert per_block * samples * d * d <= WORD_CAP, d
        assert per_block >= 8 or d >= 32, d
        assert per_block >= 1, d
        # the products are real GEMMs, which OpenBLAS keeps on the calling
        # thread up to m n k = 10^6: the X-step (s d x 2d)(2d x 2d) for
        # d <= 32, and the U-step (P d x 2d)(2d x 2d) wherever one pattern's
        # is (d <= 62), which caps P at 7 for d = 32
        if d <= 32:
            assert 4 * samples * d**3 <= 10**6, d
        if 4 * d**3 <= 10**6:
            assert 4 * per_block * d**3 <= 10**6, d
    assert word_sizes(32) == (1, 7)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("HAARMOMENTS_THREADS", "3")
    assert worker_count() == 3
    assert worker_count(5) == 5
    for bad in ("two", "1.5", "0", "-3"):
        monkeypatch.setenv("HAARMOMENTS_THREADS", bad)
        with pytest.raises(ValueError, match=f"HAARMOMENTS_THREADS .*'{bad}'"):
            worker_count()
        assert worker_count(2) == 2
    monkeypatch.setenv("HAARMOMENTS_THREADS", "")
    assert worker_count() == min(4, os.cpu_count() or 1)
    monkeypatch.delenv("HAARMOMENTS_THREADS")
    assert worker_count() == min(4, os.cpu_count() or 1)


def test_explicit_worker_count_below_one_is_refused_before_drawing(monkeypatch):
    chunks = []

    def counted(self, *subkeys):
        chunks.append(subkeys)
        return np.random.default_rng([self.seed, self.stream, *subkeys])

    monkeypatch.setattr(RngStream, "generator", counted)
    dims, rng = BipartiteDims(2, 2), RngStream(78)
    runs = {
        "moments": lambda w: empirical_moments([[np.eye(2)]], 2, 100, rng, workers=w),
        "reduced norm": lambda w: empirical_reduced_norm(np.eye(4), dims, 100, rng, workers=w),
        "purity": lambda w: empirical_purity(
            dims, "uniform", product_state(dims), 1.0, 100, rng, workers=w
        ),
        "gibbs purity": lambda w: gibbs_purity_mc(EnsembleKind.POISSON, 4, 1.0, 100, rng, w),
    }
    for name, run in runs.items():
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"workers .*{bad}"):
                run(bad)
        assert chunks == [], name
        run(1)
        assert chunks == [(0,)], name
        chunks.clear()


def test_explicit_worker_count_must_be_an_integer(monkeypatch):
    for bad in (1.5, 2.0, True, False, "2"):
        with pytest.raises(ValueError, match=f"workers must be an integer >= 1, got {bad!r}"):
            worker_count(bad)
    assert worker_count(np.int64(2)) == 2 and type(worker_count(np.int64(2))) is int
    chunks = []

    def counted(self, *subkeys):
        chunks.append(subkeys)
        return np.random.default_rng([self.seed, self.stream, *subkeys])

    monkeypatch.setattr(RngStream, "generator", counted)
    dims, rng = BipartiteDims(2, 2), RngStream(78)
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="workers must be an integer"):
            empirical_purity(dims, "uniform", product_state(dims), 1.0, 100, rng, workers=bad)
    assert chunks == []
    est = empirical_purity(dims, "uniform", product_state(dims), 1.0, 100, rng, workers=np.int64(2))
    assert chunks == [(0,)]
    assert est == empirical_purity(dims, "uniform", product_state(dims), 1.0, 100, rng, workers=1)


def test_non_finite_levels_are_refused_before_drawing(monkeypatch):
    draws = []

    def counted(d, n, rng):
        draws.append(n)
        return haar_batches(d, n, rng)

    monkeypatch.setattr(mc, "haar_batches", counted)
    dims = BipartiteDims(2, 2)
    for bad in (np.nan, np.inf, -np.inf):
        levels = [0.0, 1.0, bad, 2.0]
        with pytest.raises(ValueError, match="energy levels must be finite"):
            empirical_thermal_distance(levels, 1.0, np.eye(4) / 4, 100, RngStream(79))
        with pytest.raises(ValueError, match="energy levels must be finite"):
            empirical_fixed_spectrum(np.eye(4), dims, levels, 1.0, 100, RngStream(79))
    assert draws == []
    empirical_thermal_distance([0.0, 1.0, 1.5, 2.0], 1.0, np.eye(4) / 4, 100, RngStream(79))
    empirical_fixed_spectrum(np.eye(4), dims, [0.0, 1.0, 1.5, 2.0], 1.0, 100, RngStream(79))
    assert draws == [100, 100]


def test_empirical_reduced_norm_identity_input():
    dims = BipartiteDims(2, 3)
    mean_est, var_est = empirical_reduced_norm(np.eye(6), dims, 4096, RngStream(2))
    # Tr_E{U I U^dag} = d_e I exactly, so the mean is d_s d_e^2 with no spread
    assert mean_est.mean == pytest.approx(2 * 9, abs=1e-9)
    assert mean_est.stderr <= 1e-11
    assert var_est.mean <= 1e-20


def test_empirical_fixed_spectrum_t0(gen):
    dims = BipartiteDims(2, 2)
    m = random_hermitian(gen, 4)
    est = empirical_fixed_spectrum(m, dims, gen.uniform(-2, 2, size=4), 0.0, 2048, RngStream(3))
    assert est.mean == pytest.approx(hs_norm_sq(partial_trace_env(m, dims)), rel=1e-12)
    assert est.stderr <= 1e-13


def test_empirical_fixed_spectrum_degenerate_levels(gen):
    dims = BipartiteDims(2, 2)
    m = random_hermitian(gen, 4)
    levels = np.full(4, 0.37)
    est = empirical_fixed_spectrum(m, dims, levels, 2.9, 2048, RngStream(4))
    assert est.mean == pytest.approx(hs_norm_sq(partial_trace_env(m, dims)), rel=1e-12)
    assert est.stderr <= 1e-13


def test_schmidt_state_purity():
    dims = BipartiteDims(3, 4)
    for p0 in (1 / 3, 0.5, 0.9, 1.0):
        psi = schmidt_state(dims, p0)
        rho_s = partial_trace_env(np.outer(psi, psi.conj()), dims)
        assert float(np.trace(rho_s @ rho_s).real) == pytest.approx(p0, abs=1e-12)
    with pytest.raises(DimensionError):
        schmidt_state(BipartiteDims(4, 3), 0.5)


def test_empirical_purity_t0_is_p0():
    dims = BipartiteDims(2, 4)
    psi = schmidt_state(dims, 0.7)
    est = empirical_purity(dims, "poi", psi, 0.0, 2048, RngStream(5))
    assert est.mean == pytest.approx(0.7, abs=1e-12)


def test_empirical_purity_uniform_matches_closed_form():
    for dims, p0, stream in ((BipartiteDims(2, 3), 1.0, 6), (BipartiteDims(4, 4), 0.6, 61)):
        psi = schmidt_state(dims, p0)
        est = empirical_purity(dims, "uniform", psi, 0.0, 20_000, RngStream(stream))
        mean, _ = uniform_purity(1.0, dims)
        assert sigma_ratio(mean, est.mean, est.stderr) <= 1, dims


# the three evolutions empirical_purity takes; a fixed spectrum is
# empirical_fixed_spectrum's
_PURITY_KINDS = (EnsembleKind.UNIFORM, EnsembleKind.POISSON, EnsembleKind.GUE_NUMERIC)


def test_empirical_purity_uniform_scales_with_state_norm():
    # the purity is quartic in psi0, and doubling is exact in floating point
    dims = BipartiteDims(2, 3)
    psi = schmidt_state(dims, 0.8)
    for kind in _PURITY_KINDS:
        one = empirical_purity(dims, kind, psi, 1.3, 3000, RngStream(62))
        two = empirical_purity(dims, kind, 2 * psi, 1.3, 3000, RngStream(62))
        assert two.mean == 16 * one.mean
        assert two.stderr == 16 * one.stderr


def test_empirical_purity_zero_state_is_exactly_zero():
    dims = BipartiteDims(2, 3)
    for kind in _PURITY_KINDS:
        est = empirical_purity(dims, kind, np.zeros(dims.d), 1.3, 2000, RngStream(63))
        assert est.mean == 0.0 and est.stderr == 0.0


def test_empirical_purity_draws_no_haar_unitary(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("empirical_purity must not draw a Haar unitary")

    monkeypatch.setattr(mc, "haar_batches", refuse)
    dims = BipartiteDims(2, 4)
    for kind in _PURITY_KINDS:
        est = empirical_purity(dims, kind, schmidt_state(dims, 0.7), 1.3, 2000, RngStream(64))
        assert 1 / 2 - 1e-9 <= est.mean <= 1.0 + 1e-9


def test_empirical_purity_refuses_unsampled_kind_before_drawing(monkeypatch):
    draws, spectra = [], []

    def counted(gen, shape):
        draws.append(shape)
        return complex_normal(gen, shape)

    def counted_spectra(kind, d, n, gen):
        spectra.append(n)
        return sample_spectra(kind, d, n, gen)

    monkeypatch.setattr(mc, "complex_normal", counted)
    monkeypatch.setattr(mc, "sample_spectra", counted_spectra)
    dims = BipartiteDims(4, 8)
    psi = product_state(dims)
    with pytest.raises(ValueError, match="no spectra"):
        empirical_purity(dims, EnsembleKind.GUE_LARGE_D, psi, 1.0, 20_000, RngStream(75), workers=2)
    # empirical_form_factors draws spectra alone, and refuses the same way
    for kind in (EnsembleKind.UNIFORM, EnsembleKind.GUE_LARGE_D):
        with pytest.raises(ValueError, match="no spectra"):
            empirical_form_factors(kind, dims.d, 1.0, 20_000, RngStream(75))
    assert draws == [] and spectra == []
    empirical_purity(dims, "poi", psi, 1.0, 100, RngStream(75))
    assert len(draws) == 2 and spectra == [100]


def _purity_dense_w(dims, kind, psi0, t, n, rng):
    # reference: a full Haar W per sample, applied as W e^{-iEt} W^dag psi0
    def chunk(gen, count):
        w = haar_unitaries(dims.d, count, gen)
        phases = np.exp(-1j * sample_spectra(kind, dims.d, count, gen) * t)
        inner = np.einsum("sji,j->si", w.conj(), psi0)
        phi = np.einsum("sij,sj->si", w, phases * inner).reshape(count, dims.d_s, dims.d_e)
        rho_s = np.einsum("sae,sbe->sab", phi, phi.conj())
        return (np.sum(rho_s.real**2 + rho_s.imag**2, axis=(1, 2)),)

    return accumulate_chunks(chunk, n, rng)[0].estimate()


# (d_s, d_e, p0, times, kinds); the dense reference costs about 3 s per
# 40 000 samples at d = 32, so the largest spaces run a subset of the kinds
_ALL_KINDS = ("poi", "gue")
PURITY_LAW_CASES = [
    (2, 2, 0.8, (0.0, 1.3), _ALL_KINDS),
    (2, 3, 1.0, (0.7,), _ALL_KINDS),
    (3, 3, 0.5, (0.0, 2.5), _ALL_KINDS),
    (4, 4, 0.6, (1.0,), _ALL_KINDS),
    (2, 8, 0.75, (0.4,), ("gue",)),
    (4, 8, 0.4, (1.8,), ("poi",)),
]


@pytest.mark.parametrize("ds, de, p0, times, kinds", PURITY_LAW_CASES)
def test_empirical_purity_law_matches_dense_haar_reference(ds, de, p0, times, kinds):
    # the two-vector sampler and a dense Haar W, each on its own stream, at 5 sigma;
    # at t = 0 both equal p0 to rounding and both stderrs are ~1e-17
    dims = BipartiteDims(ds, de)
    psi = schmidt_state(dims, p0)
    for i, t in enumerate(times):
        for k, name in enumerate(kinds):
            kind = EnsembleKind(name)
            est = empirical_purity(dims, kind, psi, t, 40_000, RngStream(82, 10 * i + k))
            ref = _purity_dense_w(dims, kind, psi, t, 40_000, RngStream(83, 10 * i + k))
            floor = 1e-12 if t == 0 else 0.0
            assert sigma_ratio(est.mean, ref.mean, np.hypot(est.stderr, ref.stderr), floor) <= 1, (name, t)


def test_empirical_purity_matches_poisson_evolution():
    dims = BipartiteDims(2, 4)
    psi = product_state(dims)
    for i, t in enumerate((0.0, 1.0, 3.0)):
        est = empirical_purity(dims, "poi", psi, t, 10_000, RngStream(7, i))
        ana = purity_evolution(EnsembleKind.POISSON, dims, 1.0, [t]).values[0]
        assert sigma_ratio(ana, est.mean, max(est.stderr, 1e-12)) <= 1


def test_empirical_purity_gue_mode_runs():
    dims = BipartiteDims(2, 2)
    est = empirical_purity(dims, "gue", product_state(dims), 1.0, 4096, RngStream(8))
    assert 0.5 - 1e-9 <= est.mean <= 1.0 + 1e-9


def test_empirical_purity_fixed_spectrum_matches_general_average():
    # the reduced purity is ||Tr_E rho(t)||^2, whose exact Haar average over
    # the eigenvectors of a fixed spectrum is general_average of rho0; the
    # fixed-spectrum purity is empirical_fixed_spectrum at rho0 = |psi><psi|
    for i, (ds, de, p0, t) in enumerate(((2, 3, 1.0, 0.8), (2, 4, 0.7, 1.7), (3, 3, 0.5, 3.0))):
        dims = BipartiteDims(ds, de)
        levels = np.random.default_rng([71, i]).uniform(-2.0, 2.0, dims.d)
        psi = schmidt_state(dims, p0)
        rho0 = np.outer(psi, psi.conj())
        est = empirical_fixed_spectrum(rho0, dims, levels, t, 20_000, RngStream(72, i))
        ana = general_average(rho0, dims, form_factor_inputs(levels, t))
        assert sigma_ratio(ana, est.mean, est.stderr) <= 1, (ds, de)


def test_empirical_purity_takes_kind_or_its_value(monkeypatch):
    dims = BipartiteDims(2, 3)
    psi = product_state(dims)
    for value, kind in (("poi", EnsembleKind.POISSON), ("uniform", EnsembleKind.UNIFORM)):
        by_value = empirical_purity(dims, value, psi, 1.3, 3000, RngStream(73))
        by_kind = empirical_purity(dims, kind, psi, 1.3, 3000, RngStream(73))
        assert (by_value.mean, by_value.stderr) == (by_kind.mean, by_kind.stderr)
    for bad in ("goe", EnsembleKind.GUE_LARGE_D):
        with pytest.raises(ValueError):
            empirical_purity(dims, bad, psi, 1.0, 100, RngStream(74))
    # a levels array is refused before a draw: a fixed spectrum is
    # empirical_fixed_spectrum's
    draws = []

    def counted(gen, shape):
        draws.append(shape)
        return complex_normal(gen, shape)

    monkeypatch.setattr(mc, "complex_normal", counted)
    for levels in ([0.3], np.zeros(dims.d)):
        with pytest.raises(ValueError, match="EnsembleKind"):
            empirical_purity(dims, levels, psi, 1.0, 100, RngStream(74))
    assert draws == []


def test_reproducible_across_worker_counts(gen, monkeypatch):
    dims = BipartiteDims(2, 3)
    m = random_hermitian(gen, 6)
    a = empirical_reduced_norm(m, dims, 10_000, RngStream(9), workers=1)
    b = empirical_reduced_norm(m, dims, 10_000, RngStream(9), workers=8)
    assert a[0].mean == b[0].mean
    assert a[0].stderr == b[0].stderr
    assert a[1].mean == b[1].mean
    # empirical_form_factors takes its worker count from HAARMOMENTS_THREADS
    for kind in (EnsembleKind.POISSON, EnsembleKind.GUE_NUMERIC):
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HAARMOMENTS_THREADS", threads)
            runs.append(empirical_form_factors(kind, 8, 1.3, 2 * CHUNK + 5, RngStream(10)))
        assert np.array_equal(runs[0].mean, runs[1].mean), kind
        assert np.array_equal(runs[0].stderr, runs[1].stderr), kind


def test_stderr_coverage(gen):
    # the analytic value should land within 2 stderr in >= 42 of 50 runs
    dims = BipartiteDims(2, 2)
    m = random_hermitian(gen, 4)
    target = uniform_average(m, dims)
    hits = 0
    for seed in range(50):
        est, _ = empirical_reduced_norm(m, dims, 2000, RngStream(1000 + seed))
        if abs(est.mean - target) <= 2 * est.stderr:
            hits += 1
    assert hits >= 42


def _offset_chunk(gen, count):
    # Each merged chunk mean is rounded to ulp(1e6) ~ 1e-10, which bounds the
    # pooled stderr's agreement with numpy at about 2e-12 / sigma relative.
    x = 1e6 + 10.0 * gen.standard_normal((count, 3))
    return (x, x[:, 0] ** 2)


def test_accumulate_chunks_matches_numpy_on_offset_data():
    # 2 full chunks and a last chunk holding one sample
    n = 2 * CHUNK + 1
    rng = RngStream(30)
    samples = [_offset_chunk(rng.generator(i), c) for i, c in enumerate((CHUNK, CHUNK, 1))]
    for k, moments in enumerate(accumulate_chunks(_offset_chunk, n, rng, variance=True)):
        x = np.concatenate([part[k] for part in samples])
        est = moments.estimate()
        assert moments.n == n
        np.testing.assert_allclose(est.mean, np.mean(x, axis=0), rtol=1e-12)
        np.testing.assert_allclose(est.stderr, np.std(x, axis=0, ddof=1) / np.sqrt(n), rtol=1e-12)
        np.testing.assert_allclose(moments.variance().mean, np.var(x, axis=0, ddof=1), rtol=1e-11)


def test_accumulate_chunks_refuses_fewer_than_two_samples():
    # one sample has no standard error: refused before any chunk is drawn
    calls = []

    def chunk(gen, count):
        calls.append(count)
        return _offset_chunk(gen, count)

    for n in (0, 1):
        with pytest.raises(ValueError, match=">= 2"):
            accumulate_chunks(chunk, n, RngStream(35))
    # nor is a count that is not an integer
    for n in (10.5, 4.0, True):
        with pytest.raises(ValueError, match="sample count must be >= 2 and an integer"):
            accumulate_chunks(chunk, n, RngStream(35))
    assert calls == []
    accumulate_chunks(chunk, 2, RngStream(35))
    assert calls == [2]


def test_lean_moments_equal_full_and_refuse_variance():
    # without variance=True only the mean and m2 are kept, with the same bits
    n = 2 * CHUNK + 1
    full = accumulate_chunks(_offset_chunk, n, RngStream(34), variance=True)
    lean = accumulate_chunks(_offset_chunk, n, RngStream(34))
    for a, b in zip(full, lean, strict=True):
        assert a.n == b.n
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.m2, b.m2)
        assert b.m3 is None and b.m4 is None
        with pytest.raises(ValueError):
            b.variance()


def test_accumulate_chunks_bit_identical_across_worker_counts():
    n = 2 * CHUNK + 1
    one = accumulate_chunks(_offset_chunk, n, RngStream(31), workers=1, variance=True)
    three = accumulate_chunks(_offset_chunk, n, RngStream(31), workers=3, variance=True)
    for a, b in zip(one, three):
        assert a.n == b.n
        for field in ("mean", "m2", "m3", "m4"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_accumulate_chunks_accepts_generator_chunks():
    def lazy(gen, count):
        yield from _offset_chunk(gen, count)

    n = 2 * CHUNK + 1
    eager = accumulate_chunks(_offset_chunk, n, RngStream(33), workers=2, variance=True)
    lazy_moments = accumulate_chunks(lazy, n, RngStream(33), workers=2, variance=True)
    for a, b in zip(eager, lazy_moments, strict=True):
        assert a.n == b.n
        for field in ("mean", "m2", "m3", "m4"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_task_form_bit_identical_to_chunk_form():
    # any integer task_chunks, 1 included, calls the function once per task
    # with its chunks' (generator, count) pairs; each chunk is still reduced
    # and merged on its own.  4 full chunks and a partial one, so at spans 2
    # and 3 the last task is partial too
    n = 4 * CHUNK + 5
    spans = []

    def task(draws):
        spans.append(len(draws))
        return [_offset_chunk(gen, count) for gen, count in draws]

    chunked = accumulate_chunks(_offset_chunk, n, RngStream(36), workers=2, variance=True)
    for span in (1, 2, 3):
        spans.clear()
        tasks = accumulate_chunks(task, n, RngStream(36), workers=2, variance=True, task_chunks=span)
        assert sorted(spans) == sorted(min(span, 5 - start) for start in range(0, 5, span)), span
        for a, b in zip(chunked, tasks, strict=True):
            assert a.n == b.n
            for field in ("mean", "m2", "m3", "m4"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), (span, field)
    # a span below 1 is refused before any task runs
    spans.clear()
    with pytest.raises(ValueError, match="task_chunks must be >= 1"):
        accumulate_chunks(task, n, RngStream(36), task_chunks=0)
    assert spans == []


def test_accumulate_chunks_exception_leaves_no_threads():
    def failing(gen, count):
        raise RuntimeError("chunk failed")

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk failed"):
        accumulate_chunks(failing, 3 * CHUNK, RngStream(32), workers=3)
    assert threading.active_count() == before


def test_reduced_norm_shift_invariant(gen):
    # ||Tr_E{U (M + cI) U^dag}||^2 is the c = 0 value shifted by a constant,
    # so its stderr and variance must not move with c
    dims = BipartiteDims(2, 3)
    h = random_hermitian(gen, dims.d)
    ref_mean, ref_var = empirical_reduced_norm(h, dims, 20_000, RngStream(33))
    for c in (1e2, 1e4):
        mean_est, var_est = empirical_reduced_norm(
            h + c * np.eye(dims.d), dims, 20_000, RngStream(33)
        )
        assert mean_est.stderr == pytest.approx(ref_mean.stderr, rel=1e-2)
        assert var_est.mean == pytest.approx(ref_var.mean, rel=1e-2)
        assert var_est.stderr == pytest.approx(ref_var.stderr, rel=1e-2)


def test_empirical_thermal_distance_refuses_bad_input_before_drawing(monkeypatch):
    draws = []

    def counted(d, n, rng):
        draws.append(n)
        return haar_batches(d, n, rng)

    monkeypatch.setattr(mc, "haar_batches", counted)
    levels = np.linspace(-2.0, 2.0, 4)
    mixed = np.eye(4) / 4
    for beta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="inverse temperature"):
            empirical_thermal_distance(levels, beta, mixed, 100, RngStream(76))
    not_hermitian = mixed + 0.1j * np.triu(np.ones((4, 4)), 1)
    for rho0 in (2 * np.eye(4), np.diag([1.5, -0.5, 0.0, 0.0]), not_hermitian):
        with pytest.raises(ValueError, match="state"):
            empirical_thermal_distance(levels, 1.0, rho0, 100, RngStream(76))
    with pytest.raises(DimensionError):
        empirical_thermal_distance(levels, 1.0, np.eye(3) / 3, 100, RngStream(76))
    assert draws == []
    empirical_thermal_distance(levels, 1.0, mixed, 100, RngStream(76))
    assert draws == [100]


def test_estimators_refuse_bad_shapes_before_drawing(monkeypatch):
    draws = []

    def counted_haar(d, n, rng):
        draws.append(("haar", n))
        return haar_batches(d, n, rng)

    def counted_normal(gen, shape):
        draws.append(("normal", shape))
        return complex_normal(gen, shape)

    def counted_spectra(kind, d, n, rng):
        draws.append(("spectra", n))
        return sample_spectra(kind, d, n, rng)

    monkeypatch.setattr(mc, "haar_batches", counted_haar)
    monkeypatch.setattr(mc, "complex_normal", counted_normal)
    monkeypatch.setattr(mc, "sample_spectra", counted_spectra)
    dims = BipartiteDims(2, 2)
    with pytest.raises(ValueError, match="odd number of operators"):
        empirical_moments([[np.eye(2)] * 3, [np.eye(2)] * 2], 2, 100, RngStream(77))
    # no pattern: nothing to estimate, so nothing is drawn
    with pytest.raises(ValueError, match="at least one pattern"):
        empirical_moments([], 2, 100, RngStream(77))
    with pytest.raises(DimensionError, match="spectrum length"):
        empirical_fixed_spectrum(np.eye(4), dims, np.zeros(3), 1.0, 100, RngStream(77))
    with pytest.raises(DimensionError, match="state vector length"):
        empirical_purity(dims, "poi", np.ones(3), 1.0, 100, RngStream(77))
    # a dimension or a sample count that is not an integer
    with pytest.raises(DimensionError, match="d must be >= 1 and an integer"):
        empirical_moments([[np.eye(2)]], 2.0, 100, RngStream(77))
    with pytest.raises(ValueError, match="sample count must be >= 2 and an integer"):
        empirical_moments([[np.eye(2)]], 2, 10.5, RngStream(77))
    # a time that is not finite
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="time must be finite"):
            empirical_fixed_spectrum(np.eye(4), dims, np.arange(4.0), t, 3000, RngStream(77))
        with pytest.raises(ValueError, match="time must be finite"):
            empirical_purity(dims, "poi", product_state(dims), t, 100, RngStream(77))
        with pytest.raises(ValueError, match="time must be finite"):
            empirical_form_factors(EnsembleKind.POISSON, 4, t, 100, RngStream(77))
    assert draws == []
    empirical_fixed_spectrum(np.eye(4), dims, np.zeros(4), 1.0, 100, RngStream(77))
    empirical_purity(dims, "poi", product_state(dims), 1.0, 100, RngStream(77))
    empirical_moments([[np.eye(2)]], 2, 100, RngStream(77))
    empirical_form_factors(EnsembleKind.POISSON, 4, 1.0, 100, RngStream(77))
    assert draws == [
        ("haar", 100),
        ("normal", (100, 4)), ("spectra", 100), ("normal", (100, 4)),
        ("haar", 100),
        ("spectra", 100),
    ]


# Whole-chunk references of the sub-batched kernels: each runs its stacked
# d x d steps on the chunk's full (count, d, d) stack at once.  The Ginibre
# matrices are drawn per sub-batch, as haar_batches draws them, and factored
# together by the package's factor (Gram-Schmidt at d = 1 and 4, LAPACK QR
# at d = 16, 32 and 64).
def _haar_whole(d, n, gen):
    z = np.concatenate([complex_normal(gen, (len(range(n)[s]), d, d)) for s in sub_batches(n, d)])
    return _haar_from_ginibre(z)


def _gue_spectra_whole(d, n, gen):
    idx = np.arange(d)
    t = np.zeros((n, d, d))
    t[:, idx, idx] = gen.standard_normal((n, d))
    t[:, idx[1:], idx[:-1]] = np.sqrt(gen.standard_gamma(idx[:0:-1], size=(n, d - 1)))
    return np.linalg.eigvalsh(t) / np.sqrt(d)


def _reduced_norm_whole(m, dims, n, rng, workers):
    def chunk(gen, count):
        u = _haar_whole(dims.d, count, gen)
        pt = partial_trace_env(u @ m @ u.conj().swapaxes(-1, -2), dims)
        return (np.sum(pt.real**2 + pt.imag**2, axis=(1, 2)),)

    (moments,) = accumulate_chunks(chunk, n, rng, workers=workers, variance=True)
    return moments.estimate(), moments.variance()


def _fixed_spectrum_whole(m, dims, levels, t, n, rng, workers):
    p = np.exp(-1j * levels * t)

    def chunk(gen, count):
        w = _haar_whole(dims.d, count, gen)
        ut = (w * p[None, None, :]) @ w.conj().swapaxes(-1, -2)
        pt = partial_trace_env(ut @ m @ ut.conj().swapaxes(-1, -2), dims)
        return (np.sum(pt.real**2 + pt.imag**2, axis=(1, 2)),)

    return accumulate_chunks(chunk, n, rng, workers=workers)[0].estimate()


def _thermal_distance_whole(levels, beta, rho0, n, rng, workers):
    g = np.exp(-beta * (levels - levels.min()))
    gibbs = g / g.sum()

    def chunk(gen, count):
        w = _haar_whole(levels.size, count, gen)
        diff = (w * gibbs) @ w.conj().swapaxes(-1, -2) - rho0
        return (np.sum(diff.real**2 + diff.imag**2, axis=(1, 2)),)

    return accumulate_chunks(chunk, n, rng, workers=workers)[0].estimate()


SUB_BATCH_DIMS = {4: BipartiteDims(2, 2), 16: BipartiteDims(4, 4), 32: BipartiteDims(4, 8)}


@pytest.mark.parametrize("d", [1, *sorted(SUB_BATCH_DIMS), 64])
def test_samplers_bit_identical_to_whole_chunk(d):
    if d in SUB_BATCH_DIMS:
        n = 2 * CHUNK + 5
        assert len(sub_batches(n, d)) > 1 or d == 4
        haar = haar_unitaries(d, n, RngStream(90, d))
        assert np.array_equal(haar, _haar_whole(d, n, RngStream(90, d).generator()))
        gue = sample_spectra(EnsembleKind.GUE_NUMERIC, d, n, RngStream(91, d))
        assert np.array_equal(gue, _gue_spectra_whole(d, n, RngStream(91, d).generator()))
    # the stream's edges: one sample, and one sample past a full sub-batch
    # (8 samples per sub-batch at d = 64)
    step = max(1, WORD_CAP // (d * d))
    assert len(sub_batches(step + 1, d)) == 2
    for n in (1, step + 1):
        stream = list(haar_batches(d, n, RngStream(90, d)))
        assert [len(u) for u in stream] == [len(range(n)[s]) for s in sub_batches(n, d)]
        haar = np.concatenate(stream)
        assert np.array_equal(haar, _haar_whole(d, n, RngStream(90, d).generator())), (d, n)


def _estimate_bits(est):
    # mean and stderr of one estimate, or of each in a tuple of them
    ests = est if isinstance(est, tuple) else (est,)
    return [np.asarray(x) for e in ests for x in (e.mean, e.stderr)]


@pytest.mark.parametrize("kernel", ["reduced norm", "fixed spectrum", "thermal distance"])
@pytest.mark.parametrize("d", sorted(SUB_BATCH_DIMS))
def test_estimators_bit_identical_to_whole_chunk(kernel, d, monkeypatch):
    dims, n = SUB_BATCH_DIMS[d], 2 * CHUNK + 5
    gen = np.random.default_rng([92, d])
    m = random_hermitian(gen, d)
    levels = gen.uniform(-2.0, 2.0, d)
    rho0 = random_state(gen, d)
    rng = RngStream(93, d)
    run, whole = {
        "reduced norm": (
            lambda: empirical_reduced_norm(m, dims, n, rng),
            lambda: _reduced_norm_whole(m, dims, n, rng, 2),
        ),
        "fixed spectrum": (
            lambda: empirical_fixed_spectrum(m, dims, levels, 1.3, n, rng),
            lambda: _fixed_spectrum_whole(m, dims, levels, 1.3, n, rng, 2),
        ),
        "thermal distance": (
            lambda: empirical_thermal_distance(levels, 0.8, rho0, n, rng),
            lambda: _thermal_distance_whole(levels, 0.8, rho0, n, rng, 2),
        ),
    }[kernel]
    expect = _estimate_bits(whole())
    for threads in ("1", "2"):
        monkeypatch.setenv("HAARMOMENTS_THREADS", threads)
        got = _estimate_bits(run())
        assert len(got) == len(expect)
        for a, b in zip(got, expect):
            assert np.array_equal(a, b), (kernel, d, threads)


def test_chunk_working_memory_is_bounded(monkeypatch):
    # traced peak of one d = 32 chunk on one worker, against one (CHUNK, d, d)
    # complex stack.  The estimators draw, factor and map the Haar stream
    # slice by slice, and hold no chunk-sized array (0.16 measured)
    monkeypatch.setenv("HAARMOMENTS_THREADS", "1")
    d, n, dims = 32, CHUNK, SUB_BATCH_DIMS[32]
    stack = n * d * d * np.dtype(complex).itemsize
    gen = np.random.default_rng(94)
    m = random_hermitian(gen, d)
    levels = gen.uniform(-2.0, 2.0, d)
    rho0 = random_state(gen, d)
    rng = RngStream(95)
    runs = {
        "reduced norm": lambda: empirical_reduced_norm(m, dims, n, rng),
        "fixed spectrum": lambda: empirical_fixed_spectrum(m, dims, levels, 1.3, n, rng),
        "thermal distance": lambda: empirical_thermal_distance(levels, 0.8, rho0, n, rng),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * stack, (name, peak / stack)
