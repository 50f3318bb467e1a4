"""Exception types shared across the package.

The command line maps these onto exit codes: validation errors to 4,
precision errors to 3, missing realization candidates to 2.
"""

__all__ = [
    "NCHVError", "ValidationError", "DimensionMismatchError", "WeightNormalizationError",
    "DegenerateTargetError", "SearchCapError", "NoCandidateError", "PrecisionError",
    "RepairExhaustedError", "RegistryCollisionError",
]


class NCHVError(Exception):
    """Base class for package errors."""


class ValidationError(NCHVError):
    """Malformed or inconsistent input data."""


class DimensionMismatchError(ValidationError):
    """Operands live on Hilbert spaces of different dimensions."""


class WeightNormalizationError(ValidationError):
    """Born weights failed to normalize; state and resolution disagree."""


class DegenerateTargetError(ValidationError):
    """Observable has a repeated eigenvalue; only nondegenerate spectra are realizable."""


class SearchCapError(ValidationError):
    """Subset search exceeded its configured budget."""


class NoCandidateError(NCHVError):
    """No realizable object lies within the requested precision."""

    def __init__(self, message, nearest_distance=None):
        super().__init__(message)
        self.nearest_distance = nearest_distance


class PrecisionError(NCHVError):
    """Requested tolerance is unattainable under the configured arithmetic bounds."""


class RepairExhaustedError(NCHVError):
    """Incompatibility repair gave up; the floor or the budget is too demanding."""


class RegistryCollisionError(NCHVError):
    """Two registered resolutions produced numerically coincident members."""
