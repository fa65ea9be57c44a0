"""Exact twins of the package's float closed forms, in stdlib ``fractions``
arithmetic, for the tests that hold the float routes against them."""

from fractions import Fraction


def uniform_coeffs(dims) -> tuple[Fraction, Fraction]:
    """(C1, C2) of the Haar mean C1 ||M||^2 + C2 (Tr M)^2 of ||Tr_E{U M U^dag}||^2,
    exactly: the closed form that ``time_coeffs`` at the CUE constants replaces."""
    ds, de = dims.d_s, dims.d_e
    denom = ds**2 * de**2 - 1
    return Fraction(ds**2 * de - de, denom), Fraction(ds * de**2 - ds, denom)
