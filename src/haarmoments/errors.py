"""Exception types shared across the package.

Each class is raised somewhere in the package, or is the base of one that is.
"""


class HaarMomentsError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(HaarMomentsError, ValueError):
    """Mismatched matrix dimensions, or a dimension a formula does not support."""
