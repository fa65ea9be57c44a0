"""Spectral-ensemble averages of the form-factor functions.

Poisson (uncorrelated levels, flat density on [-2, 2]) has closed forms for
the averages of |f(t)|^2, Re{f(t)^2 f*(2t)} and |f(t)|^4.  The Gaussian
unitary ensemble comes in two flavours.  GUE_NUMERIC is exact at finite d:
its levels form a determinantal process whose kernel is built from scaled
Hermite functions, so every average is a finite sum of traces of the d x d
blocks G(tau)_kl = int phi_k phi_l exp(-i E tau) dE.  Each block is one
trapezoidal sum on a uniform grid whose window and step are closed-form
bounds in (d, tau), with no convergence loop.  GUE_LARGE_D uses the factorized
large-d limit h(t) = J1(2t)/t.  Both share the <|H_ij|^2> = 1/d
normalization, so every ensemble lives on the spectral span [-2, 2].  The
ensemble vocabulary ``EnsembleKind`` and the spectrum sampler live in
``linalg``, where the Monte Carlo oracle reaches them without this module.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed_forms import FormFactorInputs, TimeCoeffs, time_coeffs
from .errors import DimensionError
from .linalg import BipartiteDims, EnsembleKind
from .weingarten import cycles_of

GUE_NUMERIC_MAX_DIM = 16


@dataclass(frozen=True)
class AveragedFormFactors(FormFactorInputs):
    """Ensemble means of the four spectral functions at a given time."""

    ensemble: EnsembleKind = EnsembleKind.POISSON
    t: float = 0.0
    d: int = 0


def sinc(x: float) -> float:
    """sin(x)/x with the limit value 1 at x = 0."""
    return float(np.sinc(x / np.pi))


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind J_1, to ~1e-10 absolute error.

    Power series below the crossover, Hankel asymptotic expansion beyond.
    The crossover sits at 16: there both branches are accurate to ~1e-10,
    whereas the optimally truncated asymptotic series has an irreducible
    ~1e-8 floor near x = 8.
    """
    if x < 0:
        return -bessel_j1(-x)
    if x < _J1_CROSSOVER:
        return _j1_series(x)
    return _j1_asymptotic(x)


_J1_CROSSOVER = 16.0


def _j1_series(x: float) -> float:
    # J1(x) = (x/2) sum_k (-1)^k (x^2/4)^k / (k! (k+1)!)
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        term *= -q / (k * (k + 1))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)) and k > 0.5 * x:
            break
    return 0.5 * x * total


# Hankel coefficients A_k = prod_{j<=k} (4 - (2j-1)^2) / (k! 8^k) for nu = 1.
def _hankel_coeffs(count: int) -> list[float]:
    coeffs = [1.0]
    for k in range(1, count):
        coeffs.append(coeffs[-1] * (4.0 - (2 * k - 1) ** 2) / (8.0 * k))
    return coeffs


_A = _hankel_coeffs(40)


def _j1_asymptotic(x: float) -> float:
    # J1(x) ~ sqrt(2/(pi x)) [cos(w) P(x) - sin(w) Q(x)], w = x - 3 pi/4,
    # with P, Q the alternating asymptotic series; truncated at the smallest
    # term, which at x >= 16 is below the target accuracy.
    p = 0.0
    last = math.inf
    for k in range(0, len(_A), 2):
        term = (-1.0) ** (k // 2) * _A[k] / x**k
        if abs(term) >= last:
            break
        p += term
        last = abs(term)
    q = 0.0
    last = math.inf
    for k in range(1, len(_A), 2):
        term = (-1.0) ** ((k - 1) // 2) * _A[k] / x**k
        if abs(term) >= last:
            break
        q += term
        last = abs(term)
    w = x - 0.75 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (math.cos(w) * p - math.sin(w) * q)


def bessel_j1_over_t(t: float) -> float:
    """J1(2t)/t with its t -> 0 limit value 1."""
    if t == 0.0:
        return 1.0
    return bessel_j1(2.0 * t) / t


def poisson_form_factors(t: float, d: int) -> AveragedFormFactors:
    """Closed-form Poisson (uncorrelated uniform levels) averages at time t.

    All four functions follow from the coincidence patterns of independent
    levels with single-level characteristic function sinc(2t).  The fourth
    moment keeps the |<exp(-2iEt)>|^2 pattern (two coincident index pairs),
    whose omission is detectable against sampled spectra at a few sigma.
    """
    if d < 1:
        raise DimensionError(f"d must be >= 1, got {d}")
    s2 = sinc(2.0 * t)
    s4 = sinc(4.0 * t)
    c2 = math.cos(2.0 * t)
    df = float(d)
    f2 = 1.0 / df + (d - 1) / df * s2**2
    f2_2t = 1.0 / df + (d - 1) / df * s4**2
    re = (
        1.0
        + (d - 1) * s4**2
        + 2.0 * (d - 1) * s2**2
        + (d - 2) * (d - 1) * c2 * s2**3
    ) / df**2
    f4 = (
        (2 * d - 1)
        + (d - 1) * s4**2
        + 4.0 * (d - 1) ** 2 * s2**2
        + 2.0 * (d - 1) * (d - 2) * c2 * s2**3
        + (d - 1) * (d - 2) * (d - 3) * s2**4
    ) / df**3
    return AveragedFormFactors(
        f2=f2, f2_2t=f2_2t, re_f2fc2t=re, f4=f4,
        ensemble=EnsembleKind.POISSON, t=t, d=d,
    )


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


def _require_gue_numeric(d: int):
    if d > GUE_NUMERIC_MAX_DIM:
        raise DimensionError(
            f"GUE numeric averages limited to d <= {GUE_NUMERIC_MAX_DIM}, got {d}"
        )


def _gue_block(tau: float, d: int) -> np.ndarray:
    """G(tau)_kl = int phi_k(E) phi_l(E) exp(-i E tau) dE; G(0) is exactly I_d.

    The products here and in ``_gue_moment`` use einsum's own loops: at
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


def _gue_moment(taus, block) -> complex:
    """E[prod_a S(tau_a)] over d-level GUE spectra, S(tau) = sum_j exp(-i E_j tau).

    The levels form a determinantal process with the rank-d projection
    kernel sum_k phi_k(E) phi_k(E').  Grouping coinciding level indices by a
    set partition pi of the factors and expanding the correlation
    determinant of the distinct levels gives

        sum_pi sum_{sigma in S_|pi|} prod_{cycles c of sigma}
            (-1)^(|c| - 1) Tr prod_{B in c} G(tau_B),

    with tau_B the sum of the tau_a in block B.  ``block(tau)`` returns G(tau).
    """
    trace = functools.cache(
        lambda cycle: np.trace(
            functools.reduce(lambda a, b: np.einsum("ij,jk->ik", a, b), map(block, cycle))
        )
    )
    total = 0j
    for partition in _set_partitions(list(taus)):
        sums = [sum(b) for b in partition]
        for perm in itertools.permutations(range(len(sums))):
            term = 1.0 + 0j
            for cycle in cycles_of(perm):
                term *= (-1) ** (len(cycle) - 1) * trace(tuple(sums[i] for i in cycle))
            total += term
    return complex(total)


def _gue_blocks(d: int):
    """G(tau) at dimension d, each block computed once per returned callable."""
    return functools.cache(lambda tau: _gue_block(tau, d))


def gue_h(t: float, d: int, mode: EnsembleKind) -> complex:
    """Ensemble mean of f(t): Fourier transform of R1/d.

    GUE_NUMERIC returns the exact finite-d value Tr G(t)/d; GUE_LARGE_D
    returns the large-d limit J1(2t)/t.
    """
    if mode == EnsembleKind.GUE_NUMERIC:
        _require_gue_numeric(d)
        return complex(_gue_moment((float(t),), _gue_blocks(d)) / d)
    if mode == EnsembleKind.GUE_LARGE_D:
        return complex(bessel_j1_over_t(float(t)))
    raise ValueError(f"gue_h expects a GUE mode, got {mode}")


def gue_form_factors(t: float, d: int, mode: EnsembleKind) -> AveragedFormFactors:
    """GUE averages of the spectral functions at time t.

    GUE_NUMERIC: all four functions exact at finite d, as moments of
    S(tau) = d f(tau) from the blocks G(+-t), G(+-2t) (see ``_gue_moment``).
    GUE_LARGE_D: everything factorizes through h(t) = J1(2t)/t.
    """
    t = float(t)
    if mode == EnsembleKind.GUE_LARGE_D:
        if d < GUE_NUMERIC_MAX_DIM:
            warnings.warn(
                f"GUE large-d limit used at small dimension d = {d}",
                stacklevel=2,
            )
        h1 = bessel_j1_over_t(t)
        h2 = bessel_j1_over_t(2.0 * t)
        f2 = h1**2
        return AveragedFormFactors(
            f2=f2, f2_2t=h2**2, re_f2fc2t=h1**2 * h2, f4=f2**2,
            ensemble=mode, t=t, d=d,
        )
    if mode == EnsembleKind.GUE_NUMERIC:
        _require_gue_numeric(d)
        if t == 0.0:
            return AveragedFormFactors(
                f2=1.0, f2_2t=1.0, re_f2fc2t=1.0, f4=1.0,
                ensemble=mode, t=t, d=d,
            )
        block = _gue_blocks(d)
        return AveragedFormFactors(
            f2=_gue_moment((t, -t), block).real / d**2,
            f2_2t=_gue_moment((2.0 * t, -2.0 * t), block).real / d**2,
            re_f2fc2t=_gue_moment((t, t, -2.0 * t), block).real / d**3,
            f4=_gue_moment((t, t, -t, -t), block).real / d**4,
            ensemble=mode, t=t, d=d,
        )
    raise ValueError(f"gue_form_factors expects a GUE mode, got {mode}")


def averaged_form_factors(ensemble: EnsembleKind, t: float, d: int) -> AveragedFormFactors:
    """Dispatch to the ensemble's averaged spectral functions."""
    if ensemble == EnsembleKind.POISSON:
        return poisson_form_factors(t, d)
    if ensemble in (EnsembleKind.GUE_NUMERIC, EnsembleKind.GUE_LARGE_D):
        return gue_form_factors(t, d, ensemble)
    raise ValueError(f"no time-dependent form factors for ensemble {ensemble}")


def averaged_time_coeffs(
    ensemble: EnsembleKind, t: float, dims: BipartiteDims
) -> TimeCoeffs:
    """Ensemble-averaged coefficients of the general time-dependent average."""
    return time_coeffs(averaged_form_factors(ensemble, t, dims.d), dims)

