"""Monte Carlo oracle for the analytic averages.

Every estimator samples from the Haar measure, spectra, or both, with the
samplers of ``linalg``, which also holds the ensemble vocabulary
(``EnsembleKind``).  Most draw full Haar unitaries; ``empirical_purity``
draws only the evolved state, from Gaussian vectors whose law follows from
Haar invariance alone, and ``empirical_form_factors`` draws only spectra.
Nothing here touches the Weingarten sums, the closed-form coefficients or
the ensemble averages, so agreement between the two routes is a real
cross-check.

Only ``empirical_reduced_norm`` reports a variance, so only its chunks keep
the third and fourth central sums.

Sampling is chunked: chunk i uses the generator derived from
(seed, stream, i), and per-chunk central moments are merged in chunk order, so
results are bit-identical for any worker count and a constant offset of the
samples does not cancel.

Each chunk runs every stacked d x d step over ``linalg.sub_batches`` of
WORD_CAP // d^2 samples: the Haar sampler's factor (Gram-Schmidt up to
``linalg.GRAM_SCHMIDT_MAX_D``, LAPACK QR above), the GUE eigensolver and
the per-sample maps of the Haar-based estimators.  ``linalg.haar_batches``
draws each slice's Ginibre matrices on their own, and those estimators map
each slice to its values as it is factored, so no chunk-sized complex stack
exists: a worker holds temporaries of at most WORD_CAP entries each, about
0.16 stacks at peak at d = 32.  The factor, LAPACK and BLAS work matrix by
matrix, so every estimate is bit-identical to factoring and mapping the
chunk's Ginibre stack, drawn slice by slice, at once.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import (
    WORD_CAP,
    BipartiteDims,
    EnsembleKind,
    RngStream,
    as_matrix,
    check_beta,
    check_dim,
    check_levels,
    check_purity,
    check_sampled_kind,
    check_state,
    check_time,
    complex_normal,
    haar_batches,
    partial_trace_env,
    real_embedding,
    sample_spectra,
)

CHUNK = 1024
# s d^3 <= GEMM_CAP bounds the samples s of a word chunk.  It was set for
# complex products: OpenBLAS threads a zgemm from m n k = 2^16 on, which made
# a 4096 x 4 x 4 product take 8.6 ms instead of 0.27 ms for 4095 x 4 x 4
# (2-vCPU Xeon, OpenBLAS 0.3.31).  The word products are now real GEMMs of
# m n k = 4 s d^3 (X-step) and 4 P d^3 (U-step), and OpenBLAS keeps a dgemm
# on the calling thread up to m n k = 10^6, its small-matrix kernel: with two
# workers, 62500 x 4 x 4 took 0.33 ms and 62501 x 4 x 4 took 10.6 ms.  The
# cap stays as it is, because s fixes each chunk's Haar stream.  OpenBLAS
# threads a matrix-vector product too: with two workers, the 1024 x 16 zgemv
# of a purity chunk took 11 ms against 0.02 ms on one BLAS thread.  Small
# matrix-vector products, here and in weingarten, are einsum: no BLAS call.
GEMM_CAP = 2**15
# the largest m n k of a real GEMM that OpenBLAS keeps on the calling thread
REAL_GEMM_CAP = 10**6


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with entrywise standard error."""

    mean: np.ndarray | float
    stderr: np.ndarray | float
    n: int


@dataclass(frozen=True)
class McMoments:
    """Sample count, mean and central sums sum (x - mean)^p, entrywise.

    m2 is always kept.  m3 and m4 (p = 3, 4) are kept only when the moments
    were taken with ``variance=True``; they are None otherwise, and only
    ``variance()`` reads them.
    """

    n: int
    mean: np.ndarray | float
    m2: np.ndarray | float
    m3: np.ndarray | float | None = None
    m4: np.ndarray | float | None = None

    @classmethod
    def of(cls, x, variance: bool = False) -> McMoments:
        """Two passes over the samples on the first axis of x: the mean (of the
        offsets from the first sample, so a common offset never enters a sum),
        then the central sums."""
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        dev = x - x[0]
        # the same sum and division as dev.mean(axis=0), without its Python wrapper
        shift = dev.sum(axis=0) / n
        dev -= shift
        mean = x[0] + shift
        if not variance:
            dev *= dev
            return cls(n, mean, dev.sum(axis=0))
        power = dev * dev
        m2 = power.sum(axis=0)
        power *= dev
        m3 = power.sum(axis=0)
        power *= dev
        return cls(n, mean, m2, m3, power.sum(axis=0))

    def merge(self, other: McMoments) -> McMoments:
        """Pooled moments of two disjoint samples (Chan-Golub-LeVeque, Pebay)."""
        na, nb, n = self.n, other.n, self.n + other.n
        delta = other.mean - self.mean
        dn = delta / n
        mean = self.mean + nb * dn
        m2 = self.m2 + other.m2 + delta * dn * na * nb
        if self.m4 is None:
            return McMoments(n, mean, m2)
        m3 = (self.m3 + other.m3 + delta * dn**2 * na * nb * (na - nb)
              + 3 * dn * (na * other.m2 - nb * self.m2))
        m4 = (self.m4 + other.m4 + delta * dn**3 * na * nb * (na * na - na * nb + nb * nb)
              + 6 * dn**2 * (na * na * other.m2 + nb * nb * self.m2)
              + 4 * dn * (na * other.m3 - nb * self.m3))
        return McMoments(n, mean, m2, m3, m4)

    def estimate(self) -> McEstimate:
        """The mean, with standard error sqrt(M2 / (n (n - 1)))."""
        n = self.n
        return McEstimate(mean=self.mean, stderr=np.sqrt(self.m2 / (n * (n - 1))), n=n)

    def variance(self) -> McEstimate:
        """The sample variance M2 / (n - 1), with standard error sqrt((m4 - m2^2) / n)."""
        if self.m4 is None:
            raise ValueError("these moments carry no m3, m4: accumulate with variance=True")
        n = self.n
        var = self.m2 / (n - 1)
        spread = np.maximum(self.m4 / n - var**2, 0.0)
        return McEstimate(mean=var, stderr=np.sqrt(spread / n), n=n)


def worker_count(explicit: int | None = None) -> int:
    """Worker threads: an explicit count, a Python or numpy integer >= 1 and
    never a bool, else ``HAARMOMENTS_THREADS``, else min(4, cpu_count)."""
    if explicit is not None:
        if isinstance(explicit, bool) or not isinstance(explicit, (int, np.integer)) or explicit < 1:
            raise ValueError(f"workers must be an integer >= 1, got {explicit!r}")
        return int(explicit)
    env = os.environ.get("HAARMOMENTS_THREADS")
    if not env:
        return min(4, os.cpu_count() or 1)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"HAARMOMENTS_THREADS must be an integer >= 1, got {env!r}")
    return int(env)


def accumulate_chunks(
    chunk_fn,
    n: int,
    rng: RngStream,
    workers: int | None = None,
    variance: bool = False,
    chunk_size: int = CHUNK,
) -> list[McMoments]:
    """Moments of the samples chunk_fn(generator, count) draws over fixed-size chunks.

    chunk_fn returns an iterable of real per-sample arrays, samples on the
    first axis.  Chunks hold ``chunk_size`` samples, the last one the rest.
    Each chunk is reduced to McMoments in its worker; the chunks are merged
    in chunk order, so the result is bit-identical for any worker count.
    Returns one McMoments per array, with m3 and m4 only when ``variance``
    is set.  n < 2 (no standard error) or not an integer is refused before any chunk runs.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"sample count must be >= 2 and an integer, got {n!r}")
    sizes = [chunk_size] * (n // chunk_size)
    if n % chunk_size:
        sizes.append(n % chunk_size)

    def run(i: int) -> list[McMoments]:
        return [McMoments.of(x, variance) for x in chunk_fn(rng.generator(i), sizes[i])]

    with ThreadPoolExecutor(max_workers=worker_count(workers)) as executor:
        parts = executor.map(run, range(len(sizes)))
        total = next(parts)
        for part in parts:
            total = [a.merge(b) for a, b in zip(total, part)]
    return total


def word_sizes(d: int) -> tuple[int, int]:
    """Samples per chunk and patterns per block of the word kernel at dimension d.

    The chunk is sized from the buffers: s = min(CHUNK, GEMM_CAP // d^3,
    WORD_CAP // (8 d^2)), at least 1, so s d^3 stays within GEMM_CAP and
    the real X-step GEMM, m n k = 4 s d^3, on the calling thread (for
    d <= 32; past that one sample's product is above it).  A block holds
    P = min(WORD_CAP // (s d^2), REAL_GEMM_CAP // (4 d^3)) patterns, at
    least 1, so it fills at most WORD_CAP entries and its U-step,
    m n k = 4 P d^3, stays on the calling thread wherever one pattern's
    does (d <= 62).  P is at least 8 for d < 32, and 7 at d = 32, where
    one block of 8 patterns of length 3 took 991 ms for 1024 samples on two
    workers against 761 ms as blocks of 7 and 1.  Both depend on d alone,
    and s is at most one ``sub_batches`` slice, so a chunk's unitaries are
    one stack of ``haar_batches``.
    """
    samples = max(1, min(CHUNK, GEMM_CAP // d**3, WORD_CAP // (8 * d * d)))
    return samples, max(1, min(WORD_CAP // (samples * d * d), REAL_GEMM_CAP // (4 * d**3)))


def empirical_moments(
    patterns, d: int, n: int, rng: RngStream, workers: int | None = None
) -> list[McEstimate]:
    """Entrywise mean/stderr of the words U X1 U^dag X2 U ... over Haar draws.

    All patterns are evaluated on one shared Haar sample stream, which keeps
    the per-pattern estimates deterministic and amortizes the sampling cost.
    Patterns of one length are stacked into blocks, and the c samples of a
    chunk build a block's words together in two buffers, allocated once per
    worker thread and call.  Both hold the words as (sample, row, pattern,
    col), so no copy moves them: a step by the fixed X's is one GEMM per
    pattern on the (pattern, sample row, col) view of a buffer, whose rows
    are P 2d floats apart; a step by U or U^dag is one (d P x d)(d x d)
    product per sample on the contiguous (sample, row pattern, col) view.
    The X-step writes the first buffer, the U-step maps it into the second,
    and the next X-step reads the second.  Every product is a real GEMM:
    its left operand and output are float views of the buffers, and its
    right operand is the 2d x 2d ``linalg.real_embedding`` R(B), built once
    per call for the X's and once per chunk for U and U^dag.  Every word
    entry takes the same BLAS sums as when the words are built one at a
    time through R, so the estimates are bit-identical to that route.

    The per-sample U-step costs one BLAS call whatever P is, so the sizing
    runs from the buffers to the chunk: ``word_sizes(d)`` gives c and P,
    with both buffers at most WORD_CAP entries (each worker holds both),
    the U-step on the calling thread, and P >= 8 for d < 32, so the
    patterns of one length usually share one block.  The chunk depends on d
    only, never on the pattern list, so each estimate is bit-identical to
    evaluating its pattern alone.
    """
    check_dim("d", d, 1)
    mats = [[as_matrix(x, d) for x in xs] for xs in patterns]
    if not mats:
        raise ValueError("empirical_moments needs at least one pattern")
    if any(len(xs) % 2 != 1 for xs in mats):
        raise ValueError("each pattern needs an odd number of operators")

    # blocks of at most per_block patterns of one length, in stable length
    # order; a block is stacked as R of its (length, P, d, d) operators, its
    # k-th operators first
    order = sorted(range(len(mats)), key=lambda i: len(mats[i]))
    chunk_size, per_block = word_sizes(d)
    blocks, stacks = [], []
    for _, group in itertools.groupby(order, key=lambda i: len(mats[i])):
        group = list(group)
        for start in range(0, len(group), per_block):
            blocks.append(group[start : start + per_block])
            stacks.append(real_embedding(np.array(list(zip(*(mats[i] for i in blocks[-1]))))))

    # each worker thread allocates the two buffers on its first chunk and
    # reuses them for the rest of this call
    size = min(per_block, len(order)) * min(chunk_size, n) * d * d
    local = threading.local()

    def chunk(gen: np.random.Generator, count: int):
        (u,) = haar_batches(d, count, gen)
        # R(U^dag) is filled from U^dag, not taken as the transposed view of
        # R(U): that strided operand made a word's bits depend on its block
        # size at d = 1 and d = 16
        right = real_embedding(u.conj().swapaxes(-1, -2)), real_embedding(u)
        if not hasattr(local, "buffers"):
            local.buffers = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
        a, b = (buf.view(float) for buf in local.buffers)
        for ops in stacks:
            p = ops.shape[1]
            # both buffers hold the block's words as (sample, row, pattern,
            # col): the X-step writes a through its (pattern, sample row,
            # col) view, the U-step maps a to b sample by sample
            u_in, u_out = (buf[: 2 * p * count * d * d].reshape(count, d * p, 2 * d) for buf in (a, b))
            x_out = u_in.reshape(count * d, p, 2 * d).swapaxes(0, 1)
            w = u.view(float).reshape(count * d, 2 * d)
            for k, x in enumerate(ops):
                np.matmul(w, x, out=x_out)
                np.matmul(u_in, right[k % 2], out=u_out)
                w = u_out.reshape(count * d, p, 2 * d).swapaxes(0, 1)
            # one row per sample, its words as (row, pattern, col), reduced
            # by the caller before the next block overwrites it
            yield u_out.reshape(count, -1)

    merged = accumulate_chunks(chunk, n, rng, workers=workers, chunk_size=chunk_size)
    estimates = [None] * len(order)
    for block, moments in zip(blocks, merged):
        est = moments.estimate()
        means = est.mean.view(complex).reshape(d, -1, d).swapaxes(0, 1)
        se = est.stderr.reshape(d, -1, d, 2).swapaxes(0, 1)
        for j, i in enumerate(block):
            estimates[i] = McEstimate(means[j], np.hypot(se[j, ..., 0], se[j, ..., 1]), n)
    return estimates


def _haar_moments(
    fn, d: int, n: int, rng: RngStream, workers: int | None = None, variance: bool = False
) -> McMoments:
    """Moments of fn over n Haar unitaries: fn takes a (k, d, d) stack of
    unitaries, one sub-batch of a chunk's stream, and returns its k values."""
    def chunk(gen: np.random.Generator, count: int):
        return (np.concatenate([fn(u) for u in haar_batches(d, count, gen)]),)

    return accumulate_chunks(chunk, n, rng, workers=workers, variance=variance)[0]


def _reduced_norm_sq(a: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """||Tr_E a||^2 of each matrix in a stack."""
    pt = partial_trace_env(a, dims)
    return np.sum(pt.real**2 + pt.imag**2, axis=(1, 2))


def empirical_reduced_norm(
    m, dims: BipartiteDims, n: int, rng: RngStream, workers: int | None = None
) -> tuple[McEstimate, McEstimate]:
    """Mean and variance of ||Tr_E{U M U^dag}||^2 over Haar U, each with stderr."""
    m = as_matrix(m, dims.d)

    def norm(u: np.ndarray) -> np.ndarray:
        return _reduced_norm_sq(u @ m @ u.conj().swapaxes(-1, -2), dims)

    moments = _haar_moments(norm, dims.d, n, rng, workers=workers, variance=True)
    return moments.estimate(), moments.variance()


def empirical_fixed_spectrum(
    m,
    dims: BipartiteDims,
    levels,
    t: float,
    n: int,
    rng: RngStream,
) -> McEstimate:
    """Mean of ||Tr_E{W e^{-iDt} W^dag M W e^{iDt} W^dag}||^2 over Haar W."""
    m = as_matrix(m, dims.d)
    e = check_levels(levels)
    if e.shape != (dims.d,):
        raise DimensionError(f"spectrum length {e.shape} != d = {dims.d}")
    check_time(t)
    p = np.exp(-1j * e * t)

    def norm(w: np.ndarray) -> np.ndarray:
        ut = (w * p[None, None, :]) @ w.conj().swapaxes(-1, -2)
        return _reduced_norm_sq(ut @ m @ ut.conj().swapaxes(-1, -2), dims)

    return _haar_moments(norm, dims.d, n, rng).estimate()


def empirical_form_factors(
    kind: EnsembleKind, d: int, t: float, n: int, rng: RngStream
) -> McEstimate:
    """Means of the four spectral functions over sampled spectra, the sampled
    twin of ``ensembles.averaged_form_factors``.

    With f(t) = (1/d) sum_j exp(-i E_j t), the mean and stderr hold, in this
    order, |f(t)|^2, |f(2t)|^2, Re{f(t)^2 f*(2t)} and |f(t)|^4: the field
    order of ``closed_forms.FormFactorInputs``.  Spectra come from
    ``sample_spectra``, so only POISSON and GUE_NUMERIC are sampled; any other
    kind or a non-finite t is refused before a draw.  At t = 0 every sample is 1.
    """
    check_sampled_kind(kind)
    check_time(t)

    def chunk(gen: np.random.Generator, count: int):
        levels = sample_spectra(kind, d, count, gen)
        f1 = np.exp(-1j * levels * t).mean(axis=1)
        f2t = np.exp(-2j * levels * t).mean(axis=1)
        # one (count, 4) stack: McMoments.of sums a column of a stack in
        # another order than a 1-D array, so four arrays would move the last
        # digits of criterion 09's report
        return (np.stack([
            np.abs(f1) ** 2, np.abs(f2t) ** 2, (f1 * f1 * f2t.conj()).real, np.abs(f1) ** 4,
        ], axis=1),)

    return accumulate_chunks(chunk, n, rng)[0].estimate()


def schmidt_state(dims: BipartiteDims, p0: float) -> np.ndarray:
    """Pure bipartite state vector whose reduced purity equals p0.

    Interpolates between the maximally entangled state (p0 = 1/d_S) and a
    product state (p0 = 1) through Schmidt weights
    w_i = (1 - s)/d_S + s delta_{i0} with s = sqrt((p0 - 1/d_S)/(1 - 1/d_S)).
    """
    ds, de = dims.d_s, dims.d_e
    if de < ds:
        raise DimensionError(f"need d_e >= d_s for Schmidt rank d_s, got {dims}")
    check_purity("reduced purity", p0, ds)
    s = np.sqrt(max(0.0, (p0 - 1.0 / ds) / (1.0 - 1.0 / ds)))
    weights = np.full(ds, (1.0 - s) / ds)
    weights[0] += s
    psi = np.zeros(dims.d, dtype=complex)
    for i in range(ds):
        psi[i * de + i] = np.sqrt(weights[i])
    return psi


def product_state(dims: BipartiteDims) -> np.ndarray:
    """|0>_S x |0>_E as a full-space vector."""
    psi = np.zeros(dims.d, dtype=complex)
    psi[0] = 1.0
    return psi


def empirical_purity(
    dims: BipartiteDims,
    kind: EnsembleKind | str,
    psi0: np.ndarray,
    t: float,
    n: int,
    rng: RngStream,
    workers: int | None = None,
) -> McEstimate:
    """Mean reduced purity of the evolved pure state psi0.

    ``kind``, an ``EnsembleKind`` or its value (e.g. "poi"), selects the
    evolution: UNIFORM applies a Haar unitary directly, POISSON and
    GUE_NUMERIC draw a fresh spectrum per sample with ``sample_spectra``.
    The purity at a fixed spectrum is ``empirical_fixed_spectrum`` at
    M = |psi0><psi0|.

    No unitary is formed: the evolved state is drawn from two complex
    Gaussian vectors with its exact law, by Haar invariance alone.  For
    UNIFORM, W psi0 is uniform on the sphere of radius ||psi0|| (Mezzadri,
    Notices AMS 54, 592 (2007)).  Otherwise, with u = psi0 / ||psi0|| and
    p = exp(-iEt), v = W^dag u is uniform on the unit sphere, and p o v =
    c v + r with c = sum_k p_k |v_k|^2 and r orthogonal to v.  W maps v to u,
    and given v it maps r to a vector uniform on the sphere of radius ||r||
    in the complement of u, so W e^{-iEt} W^dag psi0 = ||psi0|| (c u + ||r|| xi)
    with xi a complex Gaussian vector whose u component is removed, then
    normalized.  ||r|| comes from the residual itself, not from
    sqrt(1 - |c|^2), which keeps t = 0 exact to rounding.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (dims.d,):
        raise DimensionError(f"state vector length {psi0.shape} != d = {dims.d}")
    if not isinstance(kind, (str, EnsembleKind)):
        raise ValueError(f"kind must be an EnsembleKind or its value, not {type(kind)}")
    kind = EnsembleKind(kind)
    if kind != EnsembleKind.UNIFORM:
        check_sampled_kind(kind)
    check_time(t)
    norm = np.linalg.norm(psi0)
    # psi0 = 0 evolves to 0 whatever unit vector stands in for u
    u = psi0 / norm if norm else product_state(dims)

    def chunk(gen: np.random.Generator, count: int):
        z = complex_normal(gen, (count, dims.d))
        if kind == EnsembleKind.UNIFORM:
            phi = z * (norm / np.linalg.norm(z, axis=1, keepdims=True))
        else:
            phases = np.exp(-1j * sample_spectra(kind, dims.d, count, gen) * t)
            v = z / np.linalg.norm(z, axis=1, keepdims=True)
            c = np.sum(phases * (v.real**2 + v.imag**2), axis=1, keepdims=True)
            r_norm = np.linalg.norm((phases - c) * v, axis=1, keepdims=True)
            xi = complex_normal(gen, (count, dims.d))
            xi -= np.einsum("si,i->s", xi, u.conj())[:, None] * u
            xi *= r_norm / np.linalg.norm(xi, axis=1, keepdims=True)
            phi = norm * (c * u + xi)
        phi = phi.reshape(count, dims.d_s, dims.d_e)
        rho_s = np.einsum("sae,sbe->sab", phi, phi.conj())
        return (np.sum(rho_s.real**2 + rho_s.imag**2, axis=(1, 2)),)

    return accumulate_chunks(chunk, n, rng, workers=workers)[0].estimate()


def empirical_thermal_distance(
    levels,
    beta: float,
    rho0,
    n: int,
    rng: RngStream,
) -> McEstimate:
    """Mean of ||rho_G - rho(t)||^2 over Haar eigenvectors W (closed system).

    rho_G = W g W^dag, with g the Gibbs weights of the levels.  No time is
    taken: U(t) = W e^{-iDt} W^dag commutes with rho_G, so by the unitary
    invariance of the Hilbert-Schmidt norm ||rho_G - U rho0 U^dag||^2 =
    ||rho_G - rho0||^2 at every t.  A level or beta that is not finite, a
    negative beta, or a rho0 that is not a d x d density matrix, is refused
    before any sample is drawn.
    """
    e = check_levels(levels)
    d = e.size
    check_beta(beta)
    rho0 = check_state(as_matrix(rho0, d))
    g = np.exp(-beta * (e - e.min()))
    gibbs = g / g.sum()

    def distance(w: np.ndarray) -> np.ndarray:
        diff = (w * gibbs) @ w.conj().swapaxes(-1, -2) - rho0
        return np.sum(diff.real**2 + diff.imag**2, axis=(1, 2))

    return _haar_moments(distance, d, n, rng).estimate()
