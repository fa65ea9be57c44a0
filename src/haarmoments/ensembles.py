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
  G(tau)_kl = int phi_k phi_l exp(-i E tau) dE.
- GUE_LARGE_D, the factorized large-d limit: prod_a d h(k_a t), with the
  semicircle transform h(t) = J1(2t)/t.

The sum is compiled once per tuple k into integer-coefficient terms: for
POISSON keyed by |pi| and the sorted |k_B| (sinc is even), for the GUE as
monomials in cycle traces keyed up to rotation.  Three identities leave two
blocks to build per time point, G(t) and G(2t), and at most |c| - 2 matrix
products per trace: G(0) = I, so zero multipliers drop out of a key;
G(-tau) = conj G(tau), as the phi_k are real, so a negated key gives the
conjugate trace; G is symmetric, so a trace's last factor enters elementwise.

Both GUE flavours share the <|H_ij|^2> = 1/d normalization, so every
ensemble lives on the spectral span [-2, 2].  ``EnsembleKind`` and the
spectrum sampler live in ``linalg``, where the Monte Carlo oracle reaches
them without this module.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import warnings

import numpy as np

from .closed_forms import FormFactorInputs, TimeCoeffs, time_coeffs
from .errors import DimensionError
from .linalg import BipartiteDims, EnsembleKind
from .weingarten import cycles_of

GUE_NUMERIC_MAX_DIM = 16


def sinc(x: float) -> float:
    """sin(x)/x with the limit value 1 at x = 0."""
    return math.sin(x) / x if x else 1.0


def bessel_j1_over_t(t: float) -> float:
    """h(t) = J1(2t)/t = (2/pi) int_0^pi sin^2(theta) cos(2t cos theta) dtheta.

    The integrand is smooth, even and 2 pi-periodic, so the trapezoidal rule
    converges geometrically once the panel count n exceeds the bandwidth 2|t|
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).  The end points, where
    sin^2 vanishes, carry no weight.
    """
    if t == 0.0:
        return 1.0
    n = 2 * math.ceil(abs(t)) + 32
    theta = np.pi / n * np.arange(1, n)
    return float(2.0 / n * np.sum(np.sin(theta) ** 2 * np.cos(2.0 * t * np.cos(theta))))


def _gue_window(d: int) -> float:
    # Semicircle support [-2, 2] plus room for the Gaussian tails of the
    # highest Hermite function, whose square is below double precision there.
    return 2.0 + 12.0 / math.sqrt(d)


def _gue_grid(d: int, tau: float) -> tuple[np.ndarray, float]:
    """Uniform abscissae E = h j covering the window, and the step h.

    The integrands phi_k phi_l exp(-i E tau) are entire and decay like a
    Gaussian, so the trapezoidal rule converges geometrically once the
    Nyquist frequency 2 pi / h exceeds their bandwidth: |tau| from the phase,
    2d from the highest pair of Hermite functions and 12 sqrt(d) for the tails
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).
    """
    step = 2.0 * math.pi / (abs(tau) + 2.0 * d + 12.0 * math.sqrt(d))
    j = math.ceil(_gue_window(d) / step)
    return step * np.arange(-j, j + 1), step


def _hermite_functions(e: np.ndarray, d: int) -> np.ndarray:
    """Scaled Hermite functions phi_0..phi_{d-1} at abscissae e, shape (d, len(e)).

    Stable three-term recurrence on the normalized functions; the weight
    exp(-d E^2 / 4) is carried inside each value, never split off.
    """
    y = np.sqrt(d / 2.0) * np.asarray(e, dtype=float)
    scale = (d / 2.0) ** 0.25
    out = np.empty((d, y.size), dtype=float)
    out[0] = scale * np.pi**-0.25 * np.exp(-0.5 * y * y)
    if d > 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(2, d):
        out[k] = math.sqrt(2.0 / k) * y * out[k - 1] - math.sqrt(
            (k - 1) / k
        ) * out[k - 2]
    return out


def _gue_block(tau: float, d: int) -> np.ndarray:
    """G(tau)_kl = int phi_k(E) phi_l(E) exp(-i E tau) dE; G(0) is exactly I_d.

    The products here and in ``_moment_function`` use einsum's own loops: at
    d <= 16 BLAS is no faster, and not calling it keeps its kernels out of
    the resident memory of a process that needs no other BLAS call.
    """
    if tau == 0.0:
        return np.eye(d, dtype=complex)
    e, step = _gue_grid(d, tau)
    phi = _hermite_functions(e, d)
    return np.einsum("kn,ln->kl", phi, step * np.exp(-1j * tau * e) * phi)


def _set_partitions(items: list) -> list:
    """Every partition of items into blocks, each block in the items' order."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for p in _set_partitions(rest):
        out.append([[first], *p])
        out += [[*p[:i], [first, *b], *p[i + 1 :]] for i, b in enumerate(p)]
    return out


def _cycle_key(ks: list[int]) -> tuple[int, ...]:
    """Trace key of a cycle: zero multipliers dropped, then its least rotation."""
    ks = tuple(k for k in ks if k)
    return min((ks[i:] + ks[:i] for i in range(len(ks))), default=())


@functools.cache
def _expansion(kind: EnsembleKind, ks: tuple[int, ...]) -> tuple:
    """E[prod_a S(k_a t)] as (key, integer coefficient) pairs: a POISSON key is
    (|pi|, sorted nonzero |k_B|), a GUE key the trace keys of one monomial."""
    terms = collections.Counter()
    for p in _set_partitions(list(ks)):
        sums = [sum(b) for b in p]
        if kind == EnsembleKind.POISSON:
            terms[len(sums), tuple(sorted(abs(s) for s in sums if s))] += 1
            continue
        for perm in itertools.permutations(range(len(sums))):
            cycles = cycles_of(perm)
            key = tuple(sorted(_cycle_key([sums[i] for i in c]) for c in cycles))
            terms[key] += (-1) ** (len(sums) - len(cycles))
    return tuple((key, c) for key, c in terms.items() if c)


def _moment_function(kind: EnsembleKind, d: int, t: float):
    """ks -> E[prod_a S(k_a t)] by the compiled expansion of the module docstring.

    Blocks, traces and h values are cached for the life of the returned
    function, so the moments of one time point share them.
    """
    if d < 1:
        raise DimensionError(f"d must be >= 1, got {d}")
    if kind == EnsembleKind.GUE_LARGE_D:
        h = functools.cache(lambda k: d * bessel_j1_over_t(k * t))
        return lambda ks: math.prod(h(abs(k)) for k in ks)
    if kind == EnsembleKind.POISSON:
        s = functools.cache(lambda k: sinc(2.0 * k * t))
        return lambda ks: sum(
            c * math.perm(d, n) * math.prod(map(s, sums))
            for (n, sums), c in _expansion(kind, tuple(ks))
        )
    if kind != EnsembleKind.GUE_NUMERIC:
        raise ValueError(f"no spectral moments for ensemble {kind}")
    if d > GUE_NUMERIC_MAX_DIM:
        raise DimensionError(f"GUE_NUMERIC needs d <= {GUE_NUMERIC_MAX_DIM}, got {d}")

    @functools.cache
    def block(k):
        return _gue_block(k * t, d) if k > 0 else block(-k).conj()

    @functools.cache
    def trace(key):
        flipped = _cycle_key([-k for k in key])  # the conjugate blocks
        if flipped < key:
            return trace(flipped).conjugate()
        if len(key) < 2:
            return np.trace(block(key[0])) if key else d
        head = functools.reduce(lambda a, b: np.einsum("ij,jk->ik", a, b), map(block, key[:-1]))
        return np.einsum("ij,ij->", head, block(key[-1]))  # G symmetric

    return lambda ks: complex(
        sum(c * math.prod(map(trace, key)) for key, c in _expansion(kind, tuple(ks)))
    )


@functools.cache
def _form_factors(kind: EnsembleKind, t: float, d: int) -> FormFactorInputs:
    """The four spectral functions at time t as normalized moments of S.

    Cached on (kind, t, d), so curves that differ only in the initial state
    share one evaluation.
    """
    moment = _moment_function(kind, d, t)
    return FormFactorInputs(
        f2=moment((1, -1)).real / d**2,
        f2_2t=moment((2, -2)).real / d**2,
        re_f2fc2t=moment((1, 1, -2)).real / d**3,
        f4=moment((1, 1, -1, -1)).real / d**4,
    )


def averaged_form_factors(ensemble: EnsembleKind, t: float, d: int) -> FormFactorInputs:
    """The ensemble's averaged spectral functions at time t.

    POISSON, GUE_NUMERIC and GUE_LARGE_D have them; ``_moment_function``
    refuses any other ensemble with ValueError.
    """
    if ensemble == EnsembleKind.GUE_LARGE_D and d < GUE_NUMERIC_MAX_DIM:
        warnings.warn(f"GUE large-d limit used at small dimension d = {d}", stacklevel=2)
    return _form_factors(ensemble, float(t), d)


def poisson_form_factors(t: float, d: int) -> FormFactorInputs:
    """Poisson (uncorrelated uniform levels) averages at time t."""
    return averaged_form_factors(EnsembleKind.POISSON, t, d)


def gue_form_factors(t: float, d: int, mode: EnsembleKind) -> FormFactorInputs:
    """GUE averages of the spectral functions at time t.

    GUE_NUMERIC: all four functions exact at finite d, from the blocks
    G(+-t), G(+-2t).  GUE_LARGE_D: everything factorizes through h(t).
    """
    if mode not in (EnsembleKind.GUE_NUMERIC, EnsembleKind.GUE_LARGE_D):
        raise ValueError(f"gue_form_factors expects a GUE mode, got {mode}")
    return averaged_form_factors(mode, t, d)


def averaged_time_coeffs(
    ensemble: EnsembleKind, t: float, dims: BipartiteDims
) -> TimeCoeffs:
    """Ensemble-averaged coefficients of the general time-dependent average."""
    return time_coeffs(averaged_form_factors(ensemble, t, dims.d), dims)

