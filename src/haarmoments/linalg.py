"""Dense complex matrix algebra, bipartite operations, the ensemble vocabulary
and the random-matrix samplers.

Matrices are plain ``numpy`` arrays of shape ``(d, d)`` and dtype complex128.
Bipartite indices are flattened system-major: row = s * d_e + e, so a system
operator ``A`` acts on the full space as ``kron(A, I_E)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

HERMITIAN_RTOL = 1e-12
STATE_PSD_TOL = 1e-9
# complex entries in one working stack (512 KiB): stacked d x d steps run on
# at most WORD_CAP // d^2 matrices at a time, the word kernel of ``mc``
# sizes its two buffers by it, and ``ensembles.bessel_j1_over_t`` sums its
# (time, node) phases in pieces of it
WORD_CAP = 2**15
# the largest d whose Haar factor is Gram-Schmidt rather than LAPACK QR: per
# full sub-batch (2-vCPU Xeon, numpy 2.4.6, OpenBLAS 0.3.31) QR took 4.46,
# 2.78, 1.77, 1.61 and 1.33 ms at d = 2, 4, 8, 10, 16, Gram-Schmidt 0.49,
# 0.75, 1.25, 1.68 and 2.84 ms
GRAM_SCHMIDT_MAX_D = 8


class EnsembleKind(enum.Enum):
    """Spectral statistics of the evolution: Haar-uniform unitaries (CUE
    eigenvalues, no levels), or Haar eigenvectors with Poisson or GUE levels."""

    UNIFORM = "uniform"
    POISSON = "poi"
    GUE_NUMERIC = "gue"
    GUE_LARGE_D = "gue-large-d"


@dataclass(frozen=True)
class BipartiteDims:
    """System/environment dimensions of a bipartite Hilbert space."""

    d_s: int
    d_e: int

    def __post_init__(self):
        check_dim("d_s", self.d_s, 2)
        check_dim("d_e", self.d_e, 2)

    @property
    def d(self) -> int:
        return self.d_s * self.d_e


@dataclass(frozen=True)
class RngStream:
    """Seed plus stream id; equal values reproduce identical sample sequences."""

    seed: int
    stream: int = 0

    def generator(self, *subkeys: int) -> np.random.Generator:
        """Fresh generator for this stream, optionally keyed by extra indices."""
        return np.random.default_rng([self.seed, self.stream, *subkeys])


def as_matrix(m, d: int | None = None) -> np.ndarray:
    """Coerce input to a square complex matrix, of size d x d when d is given."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if d is not None and a.shape[0] != d:
        raise DimensionError(f"matrix dim {a.shape[0]} != d = {d}")
    return a


def check_purity(name: str, p: float, dim: int) -> None:
    """A purity of a dim-dimensional state lies in [1/dim, 1], up to rounding."""
    if not 1.0 / dim - 1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"{name} = {p} outside [1/{dim}, 1]")


def check_dim(name: str, d: int, low: int) -> None:
    """A dimension is an integer >= low: a Python or numpy integer, never a bool."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < low:
        raise DimensionError(f"{name} must be >= {low} and an integer, got {d!r}")


def check_time(t) -> None:
    """A time, or every time of an array, is finite; the first that is not is named."""
    finite = np.isfinite(t)
    if not finite.all():
        raise ValueError(f"time must be finite, got {np.asarray(t)[~finite].flat[0]}")


def check_levels(levels) -> np.ndarray:
    """Energy levels are finite reals, at least one per spectrum (the last
    axis); returns them as a float array."""
    e = np.asarray(levels, dtype=float)
    if e.shape[-1:] == (0,):
        raise ValueError("a spectrum needs at least one energy level")
    finite = np.isfinite(e)
    if not finite.all():
        raise ValueError(f"energy levels must be finite, got {e[~finite][0]}")
    return e


def check_beta(beta: float) -> None:
    """An inverse temperature is finite and >= 0."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"inverse temperature must be finite and >= 0, got {beta}")


def is_hermitian(m: np.ndarray, rtol: float = HERMITIAN_RTOL) -> bool:
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale == 0.0:
        return True
    return np.max(np.abs(m - m.conj().T)) <= rtol * scale


def check_state(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD, up to STATE_PSD_TOL."""
    rho = as_matrix(rho)
    if not is_hermitian(rho, rtol=1e-9):
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > STATE_PSD_TOL:
        raise ValueError(f"state trace {np.trace(rho)} is not 1")
    if np.linalg.eigvalsh(rho).min() < -STATE_PSD_TOL:
        raise ValueError("state has a negative eigenvalue beyond tolerance")
    return rho


def _bipartite_blocks(m, dims: BipartiteDims) -> np.ndarray:
    """A d x d matrix or an (n, d, d) stack, indexed (..., s, e, s', e')."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (dims.d, dims.d):
        raise DimensionError(f"expected (d, d) or (n, d, d) with d = {dims.d}, got {m.shape}")
    return m.reshape(*m.shape[:-2], dims.d_s, dims.d_e, dims.d_s, dims.d_e)


def partial_trace_env(m, dims: BipartiteDims) -> np.ndarray:
    """Trace out the environment factor: (Tr_E M)_{kl} = sum_j M_{(k,j),(l,j)}.

    Takes one matrix or an (n, d, d) stack, traced matrix by matrix.
    """
    return np.einsum("...ajbj->...ab", _bipartite_blocks(m, dims))


def partial_trace_sys(m, dims: BipartiteDims) -> np.ndarray:
    """Trace out the system factor: (Tr_S M)_{kl} = sum_j M_{(j,k),(j,l)}.

    Takes one matrix or an (n, d, d) stack, traced matrix by matrix.
    """
    return np.einsum("...jajb->...ab", _bipartite_blocks(m, dims))


def hs_norm_sq(m) -> float:
    """Squared Hilbert-Schmidt (Frobenius) norm, Tr(M^dag M)."""
    m = np.asarray(m)
    return float(np.sum(np.abs(m) ** 2))


def trace_power(m, k: int) -> complex:
    """Tr(M^k) for k in 1..4 by repeated multiplication."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"k must be in 1..4, got {k}")
    m = as_matrix(m)
    p = m
    for _ in range(k - 1):
        p = p @ m
    return complex(np.trace(p))


def real_embedding(b: np.ndarray) -> np.ndarray:
    """The real 2k x 2n matrix R(B) of a complex k x n matrix B, or of each
    matrix of a stack, with ``a.view(float) @ R(B) == (a @ B).view(float)``
    up to rounding: entry B_lj becomes the block [[Re, Im], [-Im, Re]] in
    rows 2l, 2l + 1 and columns 2j, 2j + 1.  The result is contiguous."""
    b = np.asarray(b, dtype=complex)
    *lead, k, n = b.shape
    r = np.empty((*lead, k, 2, n, 2))
    r[..., 0, :, 0] = r[..., 1, :, 1] = b.real
    r[..., 0, :, 1] = b.imag
    np.negative(b.imag, out=r[..., 1, :, 0])
    return r.reshape(*lead, 2 * k, 2 * n)


def _as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    return rng.generator() if isinstance(rng, RngStream) else rng


def complex_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian entries, real parts drawn first."""
    z = np.empty(shape, dtype=complex)
    z.real = gen.standard_normal(shape)
    z.imag = gen.standard_normal(shape)
    return z


def sub_batches(n: int, d: int) -> list[slice]:
    """Slices of range(n) holding WORD_CAP // d^2 samples each (at least one), the last the rest.

    A stacked d x d step run over these slices holds at most WORD_CAP entries
    per temporary.  The Haar factor and BLAS factor and multiply a stack
    matrix by matrix, so each slice's results are the bits of the
    whole-stack call.
    """
    step = max(1, WORD_CAP // (d * d))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _row_sum(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ... in row order.  np.sum(x, axis=0) adds the rows in
    order only when the batch axis holds more than one sample, so its bits
    would depend on the batch size from four rows on."""
    acc = x[0].copy()
    for row in x[1:]:
        acc += row
    return acc


def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """The Q of the QR factor of each matrix of a (k, d, d) stack whose R has a
    positive diagonal, by classical Gram-Schmidt run twice per column (CGS2):
    elementwise ufuncs over the batch, the innermost axis, and no BLAS or
    LAPACK call.  Two passes give orthogonality at rounding level (Giraud,
    Langou, Rozloznik & van den Eshof, Numer. Math. 101, 87 (2005)); each
    matrix's bits are independent of k."""
    cols = z.transpose(2, 1, 0).copy()  # (column, row, sample)
    q = np.empty_like(cols)
    q_conj = np.empty_like(cols)
    for j, v in enumerate(cols):
        for _ in range(2 if j else 0):
            coeffs = _row_sum((q_conj[:j] * v).swapaxes(0, 1))
            for term in q[:j] * coeffs[:, None, :]:
                v -= term
        norm = np.sqrt(_row_sum(v.real * v.real + v.imag * v.imag))
        np.divide(v, norm, out=q[j])
        np.conjugate(q[j], out=q_conj[j])
    return np.ascontiguousarray(q.transpose(2, 1, 0))


def _haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (k, d, d) Ginibre stack: the Q of its QR factor
    with a positive R diagonal, which is unique (plain QR alone is not
    Haar-distributed).  Up to GRAM_SCHMIDT_MAX_D it is ``_gram_schmidt``;
    above, LAPACK QR, then the column phases conj(r_jj)/|r_jj|.  The two
    agree to rounding, so the choice never changes the law."""
    if z.shape[-1] <= GRAM_SCHMIDT_MAX_D:
        return _gram_schmidt(z)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag.conj() / np.abs(diag))[:, None, :]
    return q


def haar_batches(d: int, n: int, rng):
    """n Haar-distributed d x d unitaries as an iterator of (k, d, d) stacks,
    one per ``sub_batches`` slice of range(n): the package's one Haar sampler.

    Ginibre matrix -> the Q of its QR factor with a positive R diagonal
    (Mezzadri, Notices AMS 54, 592 (2007)), by ``_haar_from_ginibre``:
    Gram-Schmidt up to GRAM_SCHMIDT_MAX_D, LAPACK QR above.  Each slice of
    k matrices is its own Ginibre draw,
    ``complex_normal(gen, (k, d, d))``, so nothing larger than one slice is
    held.  When n fits in one slice there is one stack, taken as
    ``(u,) = haar_batches(d, n, gen)``.  d < 1 is refused at the call,
    before any draw.
    """
    check_dim("d", d, 1)
    gen = _as_generator(rng)
    return (
        _haar_from_ginibre(complex_normal(gen, (s.stop - s.start, d, d)))
        for s in sub_batches(n, d)
    )


def sample_gue_hamiltonians(d: int, n: int, rng) -> np.ndarray:
    """Stack of n GUE matrices normalized to <|H_ij|^2> = 1/d (semicircle on [-2, 2]).

    The dense reference route, from 2d^2 normals per matrix.  ``sample_spectra``
    draws GUE levels from a tridiagonal model and never calls this, so checks
    that diagonalize these matrices are independent of it.
    """
    check_dim("d", d, 1)
    a = complex_normal(_as_generator(rng), (n, d, d))
    return (a + a.conj().swapaxes(-1, -2)) / (2.0 * np.sqrt(d))


def check_sampled_kind(kind: EnsembleKind) -> None:
    """ValueError unless ``sample_spectra`` draws spectra of this kind."""
    if kind not in (EnsembleKind.POISSON, EnsembleKind.GUE_NUMERIC):
        raise ValueError(f"no spectra to sample for ensemble {kind}")


def sample_spectra(kind: EnsembleKind, d: int, n: int, rng) -> np.ndarray:
    """n sampled spectra of d levels each, shape (n, d), on the spectral span [-2, 2].

    POISSON levels are i.i.d. uniform.  GUE_NUMERIC levels are the ascending
    eigenvalues of the beta = 2 Hermite tridiagonal model (Dumitriu & Edelman,
    J. Math. Phys. 43, 5830 (2002)): diagonal N(0, 1), off-diagonals
    b_k = sqrt(chi^2_{2k} / 2) for k = d - 1, ..., 1, all divided by sqrt(d).
    That is exactly the eigenvalue law of ``sample_gue_hamiltonians``
    (<|H_ij|^2> = 1/d, semicircle on [-2, 2]) from 2d - 1 variates and a real
    symmetric matrix instead of 2d^2 normals and a complex Hermitian one.  No
    other kind has spectra to sample.  All variates are drawn at once; the
    tridiagonal matrices are filled and diagonalized over ``sub_batches``.
    """
    check_sampled_kind(kind)
    check_dim("d", d, 1)
    gen = _as_generator(rng)
    if kind == EnsembleKind.POISSON:
        return gen.uniform(-2.0, 2.0, size=(n, d))
    idx = np.arange(d)
    diag = gen.standard_normal((n, d))
    # chi^2_{2k} / 2 is Gamma(k, 1); eigvalsh reads only the lower triangle
    sub = np.sqrt(gen.standard_gamma(idx[:0:-1], size=(n, d - 1)))
    levels = np.empty((n, d))
    for s in sub_batches(n, d):
        t = np.zeros((len(diag[s]), d, d))
        t[:, idx, idx] = diag[s]
        t[:, idx[1:], idx[:-1]] = sub[s]
        levels[s] = np.linalg.eigvalsh(t)
    levels /= np.sqrt(d)
    return levels
