"""Physics built on the averages: state distances, the depolarizing channel,
purity/entanglement evolution, and closed/open thermalization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import (
    FormFactorInputs,
    general_average,
    haar_form_factors,
    time_coeffs,
    uniform_average,
    uniform_variance,
)
from .ensembles import EnsembleKind, averaged_time_coeffs, bessel_j1_over_t, sinc
from .linalg import (
    BipartiteDims,
    RngStream,
    as_matrix,
    check_beta,
    check_dim,
    check_levels,
    check_purity,
    check_sampled_kind,
    check_state,
    check_time,
    sample_spectra,
)
from .mc import accumulate_chunks

ENVELOPE_WINDOW = math.pi / 2  # oscillation period of the sin(2t)-type factors


@dataclass(frozen=True)
class Curve:
    """A quantity sampled on a time grid."""

    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ThermalizationParams:
    """Scalar inputs of the open-system thermalization curve.

    The initial state enters only through its purities; the default triple
    (1, 1, 1) is a pure product state.
    """

    dims: BipartiteDims
    p_gibbs: float
    p_rho0: float = 1.0
    p_s0: float = 1.0
    p_e0: float = 1.0


def two_state_uniform(rho, rho_p, dims: BipartiteDims) -> tuple[float, float]:
    """Mean and variance of ||Tr_E{U (rho - rho') U^dag}||^2 over Haar U."""
    m = check_state(rho) - check_state(rho_p)
    return uniform_average(m, dims), uniform_variance(m, dims)


def two_state_general(rho, rho_p, dims: BipartiteDims, ff: FormFactorInputs) -> float:
    """Time-dependent mean distance of two evolving reduced states.

    When both marginals of rho and rho' agree only the ct1(t) ||rho - rho'||^2
    term of the general average survives.
    """
    return general_average(check_state(rho) - check_state(rho_p), dims, ff)


def depolarizing_average(rho0, f2: float, d: int) -> np.ndarray:
    """Average evolved state: mixes rho0 with I/d, weights set by |f(t)|^2."""
    check_dim("d", d, 2)
    rho0 = check_state(as_matrix(rho0, d))
    if not 0.0 <= f2 <= 1.0:
        raise ValueError(f"|f(t)|^2 must lie in [0, 1], got {f2}")
    lam = (d**2 * f2 - 1.0) / (d**2 - 1.0)
    return (1.0 - lam) * np.eye(d, dtype=complex) / d + lam * rho0


def uniform_purity(p_total: float, dims: BipartiteDims) -> tuple[float, float | None]:
    """Mean reduced purity under a Haar average, plus the pure-state variance.

    The mean depends on the total state only through its purity: it is
    ct1 p_total + ct2 at ``haar_form_factors``, where ct3 and ct4 vanish.  The
    variance closed form holds for pure total states only and is None otherwise.
    """
    d = dims.d
    check_purity("total purity", p_total, d)
    ds, de = dims.d_s, dims.d_e
    c = time_coeffs(haar_form_factors(d), dims)
    mean = c.ct1 * p_total + c.ct2
    variance = None
    if abs(p_total - 1.0) <= 1e-12:
        variance = 2.0 * (de**2 - 1) * (ds**2 - 1) / ((d + 1) ** 2 * (d + 2) * (d + 3))
    return mean, variance


def purity_evolution(
    ensemble: EnsembleKind, dims: BipartiteDims, p0: float, times
) -> Curve:
    """Mean reduced purity of an initially pure total state along a time grid.

    p0 is the initial reduced purity; the trajectory starts at p0 exactly and
    relaxes towards (d_S + d_E)/(d_S d_E + 1), i.e. 1/d_S for large d_E.  A
    pure total state has ||rho0||^2 = Tr rho0 = 1 and two marginals of purity
    p0, so the general average reads ct1 + ct2 + (ct3 + ct4) p0.
    """
    check_purity("reduced purity", p0, dims.d_s)
    times = np.asarray(times, dtype=float)
    c = averaged_time_coeffs(ensemble, times, dims)
    return Curve(times=times, values=c.ct1 + c.ct2 + (c.ct3 + c.ct4) * p0)


def gibbs_purity(levels, beta: float) -> float | np.ndarray:
    """Purity of the thermal state of the spectrum: Tr e^{-2 b D} / (Tr e^{-b D})^2.

    The spectrum runs along the last axis, so a stack of spectra gives an
    array of purities and a single spectrum a scalar.  A level that is not
    finite is refused, as ``check_beta`` refuses a bad beta.
    """
    check_beta(beta)
    e = check_levels(levels)
    w = np.exp(-beta * (e - e.min(axis=-1, keepdims=True)))
    return np.sum(w**2, axis=-1) / np.sum(w, axis=-1) ** 2


def gibbs_purity_mc(
    ensemble: EnsembleKind,
    d: int,
    beta: float,
    n: int,
    rng: RngStream,
    workers: int | None = None,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the Gibbs purity over spectra.

    The spectra come from ``sample_spectra``, so only POISSON and GUE_NUMERIC
    are accepted; beta = 0 gives exactly (1/d, 0) for n >= 2, and beta < 0
    raises ValueError.  Both refusals come before any spectrum is drawn.
    """
    check_beta(beta)
    check_sampled_kind(ensemble)

    def chunk(gen: np.random.Generator, count: int):
        return (gibbs_purity(sample_spectra(ensemble, d, count, gen), beta),)

    est = accumulate_chunks(chunk, n, rng, workers=workers)[0].estimate()
    return est.mean, est.stderr


def closed_thermalization(p_gibbs: float, p0: float, d: int) -> float:
    """Time-independent mean squared distance to the Gibbs state (closed system)."""
    check_dim("d", d, 1)
    check_purity("p_gibbs", p_gibbs, d)
    check_purity("p0", p0, d)
    return p_gibbs + p0 - 2.0 / d


def open_thermalization(
    params: ThermalizationParams, ensemble: EnsembleKind, times
) -> Curve:
    """Mean squared reduced distance to the Gibbs state along a time grid."""
    dims = params.dims
    d = dims.d
    check_purity("p_gibbs", params.p_gibbs, d)
    check_purity("p_rho0", params.p_rho0, d)
    check_purity("p_s0", params.p_s0, dims.d_s)
    check_purity("p_e0", params.p_e0, dims.d_e)
    base = uniform_purity(params.p_gibbs, dims)[0] - 2.0 / dims.d_s
    times = np.asarray(times, dtype=float)
    c = averaged_time_coeffs(ensemble, times, dims)
    values = base + c.ct1 * params.p_rho0 + c.ct2 + c.ct3 * params.p_s0 + c.ct4 * params.p_e0
    return Curve(times=times, values=values)


def equilibration_large_de(
    ensemble: EnsembleKind, d_s: int, p_s0: float, times
) -> Curve:
    """Infinite-environment limit of the open thermalization curve.

    Poisson decays as c0 (cos t sin t / t)^4, the GUE as c0 (J1(2t)/t)^4,
    with c0 the initial reduced-purity excess over 1/d_S.
    """
    check_dim("d_s", d_s, 2)
    check_purity("p_s0", p_s0, d_s)
    c0 = p_s0 - 1.0 / d_s
    times = np.asarray(times, dtype=float)
    check_time(times)
    if ensemble == EnsembleKind.POISSON:
        values = c0 * sinc(2.0 * times) ** 4
    elif ensemble == EnsembleKind.GUE_LARGE_D:
        values = c0 * bessel_j1_over_t(times) ** 4
    else:
        raise ValueError(f"no large-d_E limit curve for ensemble {ensemble}")
    return Curve(times=times, values=values)


def fit_decay_exponent(curve: Curve, t_window: tuple[float, float]) -> float:
    """Power-law exponent of the oscillating decay on a time window.

    The envelope is the running maximum over windows of one oscillation
    period; a raw log-log fit on the oscillating curve would be biased.
    """
    t0, t1 = t_window
    if t0 <= 0 or t1 <= t0:
        raise ValueError(f"need 0 < t0 < t1, got ({t0}, {t1})")
    times = curve.times
    values = curve.values
    if t0 < times.min() - 1e-12 or t1 > times.max() + 1e-12:
        raise ValueError("fit window extends beyond the curve")
    env_t = []
    env_v = []
    edge = t0
    while edge < t1 - 1e-12:
        hi = min(edge + ENVELOPE_WINDOW, t1)
        mask = (times >= edge) & (times <= hi)
        if mask.any():
            vals = values[mask]
            k = int(np.argmax(vals))
            if vals[k] <= 0:
                raise ValueError(f"window [{edge:.3f}, {hi:.3f}] has non-positive maximum")
            env_t.append(times[mask][k])
            env_v.append(vals[k])
        edge = hi
    if len(env_t) < 4:
        raise ValueError(f"only {len(env_t)} envelope points; need at least 4")
    slope, _ = np.polyfit(np.log(env_t), np.log(env_v), 1)
    return float(slope)
