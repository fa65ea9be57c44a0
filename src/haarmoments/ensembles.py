"""Spectral-ensemble averages of the form-factor functions.

Every ensemble is one moment function taus -> E[prod_a S(tau_a)] of
S(tau) = sum_j exp(-i E_j tau) = d f(tau).  Grouping coinciding level
indices by a set partition pi of the factors leaves one factor per block B,
at the summed time tau_B:

- POISSON, independent levels flat on [-2, 2]: pi contributes
  d!/(d - |pi|)! prod_B sinc(2 tau_B).
- GUE_NUMERIC, exact at finite d: the levels form a determinantal process
  with a projection kernel of scaled Hermite functions phi_k, and pi
  contributes sum_{sigma in S_|pi|} prod_{cycles c of sigma}
  (-1)^(|c| - 1) Tr prod_{B in c} G(tau_B), with the d x d blocks
  G(tau)_kl = int phi_k phi_l exp(-i E tau) dE.
- GUE_LARGE_D, the factorized large-d limit: prod_a d h(tau_a), with the
  semicircle transform h(t) = J1(2t)/t.

Both GUE flavours share the <|H_ij|^2> = 1/d normalization, so every
ensemble lives on the spectral span [-2, 2].  ``EnsembleKind`` and the
spectrum sampler live in ``linalg``, where the Monte Carlo oracle reaches
them without this module.
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


_PARTITIONS = {k: _set_partitions(list(range(k))) for k in range(1, 5)}


def _moment_function(kind: EnsembleKind, d: int):
    """taus -> E[prod_a S(tau_a)] by the expansion of the module docstring.

    Blocks, traces and h values are cached for the life of the returned
    function, so the moments of one time point share them.
    """
    if d < 1:
        raise DimensionError(f"d must be >= 1, got {d}")
    if kind == EnsembleKind.GUE_LARGE_D:
        h = functools.cache(bessel_j1_over_t)
        return lambda taus: math.prod(d * h(abs(tau)) for tau in taus)
    if kind == EnsembleKind.POISSON:
        def terms(sums):
            yield math.perm(d, len(sums)) * math.prod(sinc(2.0 * s) for s in sums)

    elif kind == EnsembleKind.GUE_NUMERIC:
        if d > GUE_NUMERIC_MAX_DIM:
            raise DimensionError(f"GUE_NUMERIC needs d <= {GUE_NUMERIC_MAX_DIM}, got {d}")
        block = functools.cache(lambda tau: _gue_block(tau, d))
        trace = functools.cache(
            lambda cycle: np.trace(
                functools.reduce(lambda a, b: np.einsum("ij,jk->ik", a, b), map(block, cycle))
            )
        )

        def terms(sums):
            for perm in itertools.permutations(range(len(sums))):
                term = 1.0 + 0j
                for cycle in cycles_of(perm):
                    term *= (-1) ** (len(cycle) - 1) * trace(tuple(sums[i] for i in cycle))
                yield term

    else:
        raise ValueError(f"no spectral moments for ensemble {kind}")

    def moment(taus) -> complex:
        total = 0j
        for partition in _PARTITIONS[len(taus)]:
            for term in terms([sum(taus[i] for i in b) for b in partition]):
                total += term
        return complex(total)

    return moment


def _form_factors(kind: EnsembleKind, t: float, d: int) -> AveragedFormFactors:
    """The four spectral functions at time t as normalized moments of S."""
    moment = _moment_function(kind, d)
    return AveragedFormFactors(
        f2=moment((t, -t)).real / d**2,
        f2_2t=moment((2.0 * t, -2.0 * t)).real / d**2,
        re_f2fc2t=moment((t, t, -2.0 * t)).real / d**3,
        f4=moment((t, t, -t, -t)).real / d**4,
        ensemble=kind, t=t, d=d,
    )


def poisson_form_factors(t: float, d: int) -> AveragedFormFactors:
    """Poisson (uncorrelated uniform levels) averages at time t."""
    return _form_factors(EnsembleKind.POISSON, float(t), d)


def gue_h(t: float, d: int, mode: EnsembleKind) -> complex:
    """Ensemble mean of f(t): Tr G(t)/d for GUE_NUMERIC, h(t) for GUE_LARGE_D."""
    if mode not in (EnsembleKind.GUE_NUMERIC, EnsembleKind.GUE_LARGE_D):
        raise ValueError(f"gue_h expects a GUE mode, got {mode}")
    return complex(_moment_function(mode, d)((float(t),)) / d)


def gue_form_factors(t: float, d: int, mode: EnsembleKind) -> AveragedFormFactors:
    """GUE averages of the spectral functions at time t.

    GUE_NUMERIC: all four functions exact at finite d, from the blocks
    G(+-t), G(+-2t).  GUE_LARGE_D: everything factorizes through h(t).
    """
    if mode not in (EnsembleKind.GUE_NUMERIC, EnsembleKind.GUE_LARGE_D):
        raise ValueError(f"gue_form_factors expects a GUE mode, got {mode}")
    if mode == EnsembleKind.GUE_LARGE_D and d < GUE_NUMERIC_MAX_DIM:
        warnings.warn(f"GUE large-d limit used at small dimension d = {d}", stacklevel=2)
    return _form_factors(mode, float(t), d)


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

