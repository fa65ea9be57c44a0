"""Exact analytic Haar averages of reduced-operator norms.

Two families: the time-independent uniform average (with its variance), and
the four-coefficient time-dependent average for a Hamiltonian with Haar
eigenvectors and an arbitrary spectrum, which enters through the normalized
Fourier transform of the level density f(t) = (1/d) sum_j exp(-i E_j t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    BipartiteDims,
    as_matrix,
    check_time,
    hs_norm_sq,
    is_hermitian,
    partial_trace_env,
    partial_trace_sys,
    trace_power,
)


@dataclass(frozen=True)
class FormFactorInputs:
    """The four spectral functions the time coefficients consume.

    For a concrete spectrum f4 == f2**2; for ensemble-averaged inputs the
    fourth moment is an independent quantity.
    """

    f2: float  # |f(t)|^2
    f2_2t: float  # |f(2t)|^2
    re_f2fc2t: float  # Re{f(t)^2 f*(2t)}
    f4: float  # |f(t)|^4


@dataclass(frozen=True)
class TimeCoeffs:
    ct1: float
    ct2: float
    ct3: float
    ct4: float


def f_of_t(levels, t: float) -> complex:
    """Normalized Fourier transform of the level density, (1/d) sum exp(-i E t)."""
    check_time(t)
    e = np.asarray(levels, dtype=float)
    return complex(np.mean(np.exp(-1j * e * t)))


def form_factor_inputs(levels, t: float) -> FormFactorInputs:
    """FormFactorInputs of a concrete spectrum at time t."""
    f = f_of_t(levels, t)
    f2t = f_of_t(levels, 2.0 * t)
    f2 = abs(f) ** 2
    return FormFactorInputs(
        f2=f2,
        f2_2t=abs(f2t) ** 2,
        re_f2fc2t=float((f * f * f2t.conjugate()).real),
        f4=f2**2,
    )


def _hermitian(m, dims: BipartiteDims) -> np.ndarray:
    """M as a d x d matrix; ValueError unless it is Hermitian, which every formula here assumes."""
    m = as_matrix(m, dims.d)
    if not is_hermitian(m):
        raise ValueError("M is not Hermitian")
    return m


def uniform_coeffs(dims: BipartiteDims) -> tuple[float, float]:
    """Coefficients (C1, C2) of the uniform average C1*||M||^2 + C2*(Tr M)^2."""
    ds, de = dims.d_s, dims.d_e
    denom = ds**2 * de**2 - 1
    return (ds**2 * de - de) / denom, (ds * de**2 - ds) / denom


def variance_coeffs(dims: BipartiteDims) -> tuple[float, float, float, float, float]:
    """Coefficients (c1..c5) of the uniform variance in powers of traces of M."""
    ds, de = dims.d_s, dims.d_e
    d2 = float(ds * ds * de * de)
    a = (de**2 - 1) * (ds**2 - 1) / (d2 * (d2 - 7) ** 2 - 36)
    b = (ds**2 - 1) * (de**2 - 1) / ((d2 - 1) ** 2 * (36 - 13 * d2 + d2**2))
    c1 = 2 * b * (11 + d2)
    c2 = 40 * a
    c3 = -4 * b * ds * de * (11 + d2)
    c4 = 2 * b * (15 - 4 * d2 + d2**2)
    c5 = -10 * a * ds * de
    return c1, c2, c3, c4, c5


def uniform_average(m, dims: BipartiteDims) -> float:
    """Haar mean of ||Tr_E{U M U^dag}||^2 for Hermitian M."""
    m = _hermitian(m, dims)
    c1, c2 = uniform_coeffs(dims)
    tr = trace_power(m, 1).real
    return c1 * hs_norm_sq(m) + c2 * tr**2


def uniform_variance(m, dims: BipartiteDims) -> float:
    """Haar variance of ||Tr_E{U M U^dag}||^2 for Hermitian M.

    Invariant under M -> M + c I, so it is evaluated without cancellation on
    M0 = M - (Tr M / d) I, where Tr M0 = 0 leaves c4 (Tr M0^2)^2 + c5 Tr M0^4.
    Never negative: c4 > 0 > c5 and Tr M0^4 <= (d^2 - 3d + 3)/(d (d - 1)) (Tr M0^2)^2.
    """
    m = _hermitian(m, dims)
    _, _, _, c4, c5 = variance_coeffs(dims)
    m0 = m - trace_power(m, 1).real / dims.d * np.eye(dims.d)
    return c4 * trace_power(m0, 2).real ** 2 + c5 * trace_power(m0, 4).real


def time_coeffs(ff: FormFactorInputs, dims: BipartiteDims) -> TimeCoeffs:
    """The four time-dependent coefficients of the general average.

    At t = 0 (all spectral inputs equal to 1) the coefficients collapse to
    (0, 0, 1, 0) by construction.  BipartiteDims has d >= 4, so the
    denominator d^4 - 10 d^2 + 9 = (d^2 - 1)(d^2 - 9) never vanishes.
    """
    de = float(dims.d_e)
    d = float(dims.d)
    a_t = d**4 - 10 * d**2 + 9
    b_t = 4 * ff.f2 - ff.f2_2t - d**2 * ff.f4
    re = ff.re_f2fc2t
    ct1 = (
        (d**2 - 3 * de**2) * b_t
        - 2 * d**2 * (de**2 - 3) * re
        + (d**2 - 9) * (d**2 - de**2)
    ) / (a_t * de)
    ct2 = (
        d * (de**2 - 3) * b_t
        - 2 * d * (d**2 - 3 * de**2) * re
        + d * (d**2 - 9) * (de**2 - 1)
    ) / (a_t * de)
    ct3 = -((d**2 - 3) * b_t + 4 * d**2 * re) / a_t
    ct4 = (2 * d * b_t + 2 * d * (d**2 - 3) * re) / a_t
    return TimeCoeffs(ct1, ct2, ct3, ct4)


def general_average(m, dims: BipartiteDims, ff: FormFactorInputs) -> float:
    """Mean of ||Tr_E{W e^{-iDt} W^dag M W e^{iDt} W^dag}||^2 over Haar W."""
    m = _hermitian(m, dims)
    c = time_coeffs(ff, dims)
    tr = trace_power(m, 1).real
    return (
        c.ct1 * hs_norm_sq(m)
        + c.ct2 * tr**2
        + c.ct3 * hs_norm_sq(partial_trace_env(m, dims))
        + c.ct4 * hs_norm_sq(partial_trace_sys(m, dims))
    )
