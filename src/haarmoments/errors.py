"""Exception types shared across the package."""


class HaarMomentsError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(HaarMomentsError, ValueError):
    """Mismatched or unsupported matrix dimensions."""


class SingularWeingartenError(HaarMomentsError, ValueError):
    """Weingarten function requested for d < m, where the closed forms blow up."""


class SingularDimensionError(HaarMomentsError, ValueError):
    """Coefficient formulas undefined at this total dimension (d in {1, 3})."""


class NegativeVarianceError(HaarMomentsError, ArithmeticError):
    """A variance formula returned a value below the numerical noise floor."""
