"""Spectral-ensemble averages of the form-factor functions.

Each spectral function is a moment E[prod_a S(k_a t)] of
S(tau) = sum_j exp(-i E_j tau) = d f(tau) with integer multipliers k:
(1, -1), (2, -2), (1, 1, -2) and (1, 1, -1, -1).  Grouping coinciding level
indices by a set partition pi of the factors leaves one factor per block B,
at the summed multiplier k_B:

- POISSON, independent levels flat on [-2, 2]: pi contributes
  d!/(d - |pi|)! prod_B sinc(2 k_B t).
- GUE_NUMERIC, exact at finite d: the levels form a determinantal process
  with a projection kernel of scaled Hermite functions phi_k, and pi
  contributes sum_{sigma in S_|pi|} prod_{cycles c of sigma}
  (-1)^(|c| - 1) Tr prod_{B in c} G(k_B t), with the d x d blocks
  G(tau)_kl = int phi_k phi_l exp(-i E tau) dE, the truncated displacement
  operator D(-i tau / sqrt(d)), built in closed form from Laguerre values.
- GUE_LARGE_D, the factorized large-d limit: prod_a d h(k_a t), with the
  semicircle transform h(t) = J1(2t)/t.
- UNIFORM, Haar unitaries with their CUE eigenvalues: ``haar_form_factors``.

The four functions compile once per kind into one table of integer-weighted
factor products: sinc(2kt) keyed by |pi| and the sorted |k_B| (sinc is even),
h(kt), or cycle traces keyed up to rotation.  Three identities leave two
blocks per time, G(t) and G(2t), and two block products, G(t) G(t) and
G(t) conj G(t): G(0) = I, so zero multipliers drop out of a key;
G(-tau) = conj G(tau), as the phi_k are real; G is symmetric, so a trace cut
into halves L, R is sum G(L) * G(reversed R).  A time grid is evaluated at
once, its sinc or h values for every d and its blocks in one call.

Both GUE flavours share the <|H_ij|^2> = 1/d normalization, so every
ensemble lives on the spectral span [-2, 2].  ``EnsembleKind`` and the
spectrum sampler live in ``linalg``, where the Monte Carlo oracle reaches
them without this module.
"""

from __future__ import annotations

import collections
import functools
import math
import warnings
from dataclasses import astuple

import numpy as np

from .closed_forms import FormFactorInputs, TimeCoeffs, haar_form_factors, time_coeffs
from .errors import DimensionError
from .linalg import WORD_CAP, BipartiteDims, EnsembleKind, check_dim, check_time
from .weingarten import all_permutations, cycles_of

GUE_NUMERIC_MAX_DIM = 16


def sinc(x):
    """sin(x)/x, 1 at x = 0: a float for a scalar x, else an array of its shape."""
    x = np.asarray(x, dtype=float)
    return np.divide(np.sin(x), x, out=np.ones(x.shape), where=x != 0.0)[()]


def bessel_j1_over_t(t):
    """h(t) = J1(2t)/t = (2/pi) int_0^pi sin^2(theta) cos(2t cos theta) dtheta:
    a float for a scalar t, else an array of its shape.

    The integrand is smooth, even and 2 pi-periodic, so the trapezoidal rule
    converges geometrically once the panel count n exceeds the bandwidth 2|t|
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).  The end points, where
    sin^2 vanishes, carry no weight.  Each t takes n = 2 ceil|t| + 32 panels,
    so its bits are the same alone as inside an array: the times of one n are
    summed together, a row each, in (time, node) pieces of at most WORD_CAP.
    """
    t = np.asarray(t, dtype=float)
    flat, out = t.ravel(), np.ones(t.size)
    nonzero = np.flatnonzero(flat)
    panels = 2.0 * np.ceil(np.abs(flat[nonzero])) + 32.0  # exact: no int64 to wrap
    for n in map(int, sorted(set(panels.tolist()))):
        rows, per = nonzero[panels == n], max(1, WORD_CAP // n)
        for piece in (rows[i : i + per] for i in range(0, rows.size, per)):
            total = -0.0  # the exact identity of +, so one node piece keeps every bit
            for j in range(1, n, WORD_CAP):
                theta = np.pi / n * np.arange(j, min(j + WORD_CAP, n))
                cos = np.cos(2.0 * flat[piece, None] * np.cos(theta))
                total = total + np.sum(np.sin(theta) ** 2 * cos, axis=-1)
            out[piece] = 2.0 / n * total
    return out.reshape(t.shape)[()]


def _gue_blocks(taus, d: int) -> np.ndarray:
    """G(tau)_kl = int phi_k(E) phi_l(E) exp(-i E tau) dE for each tau of an
    array, shape (*taus.shape, d, d); G(0) is exactly I_d.

    G(tau) is the truncated displacement operator D(-i tau / sqrt(d)), whose
    matrix elements are, for k <= l, p = l - k and x = tau^2 / d (Cahill &
    Glauber, Phys. Rev. 177, 1857 (1969)),

        G_kl = G_lk = sqrt(k!/l!) (-i tau / sqrt(d))^p exp(-x/2) L_k^(p)(x).

    One three-term recurrence in k, (k + 1) L_{k+1} = (2k + 1 + p - x) L_k -
    (k + p) L_{k-1}, gives every value at once on a (k, p, tau) array of the
    real factors sqrt(k!/l!) (tau / sqrt(d))^p exp(-x/2) L_k^(p)(x), with the
    weight carried inside from k = 0.  The exact phase (-i)^p then makes G_kl
    real for k + l even and imaginary for k + l odd, the other part an exact
    zero.  As |L_k^(p)(x)| <= 2^l (1 + x)^k, |G_kl| <= 2^l (1 + x)^l exp(-x/2),
    below 1e-260 at x >= 1500 for every d <= GUE_NUMERIC_MAX_DIM, so past that
    x the block is zero.
    """
    taus = np.asarray(taus, dtype=float)
    flat = taus.ravel()
    live = np.abs(flat) <= math.sqrt(1500.0 * d)  # x <= 1500, else the zero block
    a = np.where(live, flat, 0.0) / math.sqrt(d)
    i = np.arange(d)
    k, p = i[:-1, None, None], i[:, None]
    step, back, norm = 2 * k + 1 + p - a * a, np.sqrt(k * (k + p)), np.sqrt((k + 1) * (k + 1 + p))
    real = np.zeros((d + 1, d, flat.size))  # rows k = 0..d-1, then zeros for k = -1
    real[0] = np.cumprod(np.vstack([np.where(live, np.exp(-0.5 * a * a), 0.0),
                                    a / np.sqrt(i[1:, None])]), axis=0)
    for j in range(d - 1):
        np.multiply(step[j], real[j], out=real[j + 1])
        real[j + 1] -= back[j] * real[j - 1]
        real[j + 1] /= norm[j]  # a division, so G(0) is exactly I
    k, p = np.minimum.outer(i, i), np.abs(np.subtract.outer(i, i))
    out = real[k, p] * np.array([1.0, -1j, -1.0, 1j])[p % 4, None]
    return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(*taus.shape, d, d)


def _block_sums(ks: tuple[int, ...]) -> tuple:
    """The block sums k_B of every set partition pi of the multipliers."""
    if not ks:
        return ((),)
    return tuple(s for p in _block_sums(ks[1:]) for s in [(ks[0], *p)]
                 + [p[:i] + (ks[0] + b,) + p[i + 1 :] for i, b in enumerate(p)])


FUNCTIONS = ((1, -1), (2, -2), (1, 1, -2), (1, 1, -1, -1))  # in FormFactorInputs order


def _expansion(kind: EnsembleKind, ks: tuple[int, ...]) -> tuple:
    """E[prod_a S(k_a t)] as (key, integer coefficient) pairs: a POISSON key is
    (|pi|, sorted nonzero |k_B|), a GUE_LARGE_D key (len(k), |k|) and a GUE key
    the trace keys of one monomial, each the least rotation of a cycle."""
    if kind == EnsembleKind.GUE_LARGE_D:
        return (((len(ks), tuple(map(abs, ks))), 1),)
    terms = collections.Counter()
    for sums, count in collections.Counter(tuple(sorted(p)) for p in _block_sums(ks)).items():
        if kind == EnsembleKind.POISSON:
            terms[len(sums), tuple(sorted(abs(s) for s in sums if s))] += count
            continue
        for perm in all_permutations(len(sums)):
            # each cycle's nonzero sums: G(0) = I drops out of a trace
            cycles = [tuple(filter(None, map(sums.__getitem__, c))) for c in cycles_of(perm)]
            keys = [min(c[j:] + c[:j] for j in range(len(c))) if c[1:] else c for c in cycles]
            terms[tuple(sorted(keys))] += count * (-1) ** (len(sums) - len(keys))
    return tuple((key, c) for key, c in terms.items() if c)


@functools.cache
def _table(kind: EnsembleKind, functions: tuple) -> tuple:
    """The functions' terms in one table: the sorted factor keys, each term's
    factor indices into them padded with len(keys) (a factor 1), each
    function's coefficient row, and each term's (function, coefficient, size)."""
    gue = kind == EnsembleKind.GUE_NUMERIC
    terms = [(f, c, 0 if gue else key[0], key if gue else key[1])
             for f, ks in enumerate(functions) for key, c in _expansion(kind, ks)]
    at = {k: i for i, k in enumerate(sorted({k for t in terms for k in t[3]}))}
    index = np.full((len(terms), max(len(t[3]) for t in terms)), len(at), dtype=np.intp)
    coef = np.zeros((len(functions), len(terms)), dtype=int)
    for m, (f, c, _, factors) in enumerate(terms):
        index[m, : len(factors)] = [at[k] for k in factors]
        coef[f, m] = c
    index.flags.writeable = coef.flags.writeable = False  # shared by every caller
    return tuple(at), index, coef, tuple(t[:3] for t in terms)


@functools.lru_cache(maxsize=64)  # keyed on the times: unbounded, every new time would stay
def _monomials(kind: EnsembleKind, times: tuple, functions: tuple) -> np.ndarray:
    """The POISSON or GUE_LARGE_D terms of the table without their weights, a
    row over the times: products of sinc(2kt) or h(kt), one sinc or
    ``bessel_j1_over_t`` call for every k, read-only and shared by every d."""
    keys, index, _, _ = _table(kind, functions)
    x, values = np.multiply.outer(keys, times), np.ones((len(keys) + 1, len(times)))
    values[:-1] = sinc(2.0 * x) if kind == EnsembleKind.POISSON else bessel_j1_over_t(x)
    out = values[index].prod(axis=1)
    out.flags.writeable = False
    return out


# Stacked products in einsum's own loops, not BLAS, whose first call would add
# its buffers to the resident memory (DECISIONS.md).
_product = functools.partial(np.einsum, "...ij,...jk->...ik")


@functools.cache
def _split(key: tuple) -> tuple:
    """(left, right, conj) with Tr prod_{k in key} G(k) = sum G(left) * G(right),
    conjugated if conj: the least cut of a rotation of the key or its negation,
    where a three-factor cut keeps its largest |k| alone for the least product."""
    n, three, neg = max(1, len(key) // 2), len(key) == 3, tuple(-k for k in key)
    cuts = [(-abs(r[0]) * three, r[:n], r[n:][::-1], c) for c, k in ((False, key), (True, neg))
            for r in (k[i:] + k[:i] for i in range(len(k)))]
    return min(cuts, default=(0, (), (), False))[1:]


def _traces(keys, blocks: dict, d: int) -> list:
    """Tr prod_{k in key} G(k) for each trace key by its ``_split``, from the
    stacked blocks {k > 0: G(k)}.  A block product is built once, for the
    largest of its sequence, the reversal (transpose) and their negations."""
    @functools.cache
    def operand(p):
        neg = tuple(-k for k in p)
        q = max(p, p[::-1], neg, neg[::-1])
        if p == q:
            return blocks[p[0]] if len(p) == 1 else _product(operand(p[:-1]), operand(p[-1:]))
        return operand(q).swapaxes(-1, -2) if q == p[::-1] else operand(neg).conj()

    @functools.cache
    def trace(left, right):
        if not right:
            return np.einsum("...ii->...", operand(left)) if left else d
        return np.einsum("...ij,...ij->...", operand(left), operand(right))

    return [np.conj(trace(left, right)) if conj else trace(left, right)
            for left, right, conj in map(_split, keys)]


def _moment_function(kind: EnsembleKind, d: int, times: tuple, functions: tuple) -> np.ndarray:
    """E[prod_a S(k_a t)] for each multiplier tuple k of functions, a row over
    the times, from the term table of the module docstring; the caller checks d."""
    if kind not in (EnsembleKind.POISSON, EnsembleKind.GUE_NUMERIC, EnsembleKind.GUE_LARGE_D):
        raise ValueError(f"no spectral moments for ensemble {kind}")
    if kind == EnsembleKind.GUE_NUMERIC and d > GUE_NUMERIC_MAX_DIM:
        raise DimensionError(f"GUE_NUMERIC needs d <= {GUE_NUMERIC_MAX_DIM}, got {d}")
    keys, index, coef, terms = _table(kind, functions)
    if kind == EnsembleKind.GUE_NUMERIC:
        ks = sorted({abs(k) for key in keys for k in key})
        blocks = dict(zip(ks, _gue_blocks(np.multiply.outer(ks, times), d)))
        values = np.ones((len(keys) + 1, len(times)), dtype=complex)  # a last row of ones
        for i, trace in enumerate(_traces(keys, blocks, d)):
            values[i] = trace
        return np.einsum("fm,mt->ft", coef, values[index].prod(axis=1))
    scale, out = math.perm if kind == EnsembleKind.POISSON else pow, [0] * len(functions)
    weights = [[float(c * scale(d, n))] for _, c, n in terms]
    for (f, _, _), term in zip(terms, _monomials(kind, times, functions) * weights):
        out[f] = out[f] + term  # in term order: a time's bits alone and in a grid
    return np.array(out)


@functools.lru_cache(maxsize=64)  # keyed on the times: unbounded, every new time would stay
def _form_factors(kind: EnsembleKind, times: tuple[float, ...], d: int) -> np.ndarray:
    """The four spectral functions on a time grid, one read-only row each in
    FormFactorInputs order, cached on (kind, times, d) for every curve."""
    values = _moment_function(kind, d, times, FUNCTIONS).real / [[d ** len(k)] for k in FUNCTIONS]
    values.flags.writeable = False
    return values


def averaged_form_factors(ensemble: EnsembleKind, t, d: int) -> FormFactorInputs:
    """The ensemble's averaged spectral functions at time t: floats for one
    time, arrays of its shape for an array of times, evaluated as one grid.
    Every EnsembleKind has them, UNIFORM at d >= 2 only; a value that is not
    an EnsembleKind is a ValueError."""
    times = np.asarray(t, dtype=float)
    check_time(times)
    check_dim("d", d, 1)
    if ensemble == EnsembleKind.GUE_LARGE_D and d < GUE_NUMERIC_MAX_DIM:
        warnings.warn(f"GUE large-d limit used at small dimension d = {d}", stacklevel=2)
    if ensemble == EnsembleKind.UNIFORM:
        values = np.multiply.outer(astuple(haar_form_factors(d)), np.ones(times.shape))
    else:
        values = _form_factors(ensemble, tuple(times.ravel().tolist()), d)
        values = values.reshape(len(FUNCTIONS), *times.shape)
    return FormFactorInputs(*(values.tolist() if times.ndim == 0 else values))


def poisson_form_factors(t: float, d: int) -> FormFactorInputs:
    """Poisson (uncorrelated uniform levels) averages at time t."""
    return averaged_form_factors(EnsembleKind.POISSON, t, d)


def gue_form_factors(t: float, d: int, mode: EnsembleKind) -> FormFactorInputs:
    """GUE averages of the spectral functions at time t: GUE_NUMERIC exact at
    finite d, GUE_LARGE_D factorized through h(t)."""
    if mode not in (EnsembleKind.GUE_NUMERIC, EnsembleKind.GUE_LARGE_D):
        raise ValueError(f"gue_form_factors expects a GUE mode, got {mode}")
    return averaged_form_factors(mode, t, d)


def averaged_time_coeffs(
    ensemble: EnsembleKind, t: float, dims: BipartiteDims
) -> TimeCoeffs:
    """Ensemble-averaged coefficients of the general time-dependent average."""
    return time_coeffs(averaged_form_factors(ensemble, t, dims.d), dims)

