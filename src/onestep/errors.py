"""Exception types shared across the library.

Every error raised on a statistical or input-contract violation derives from
EstimationError, so callers can catch one base class at pipeline boundaries.
"""

from __future__ import annotations

__all__ = [
    "EstimationError",
    "DomainError",
    "NonFiniteError",
    "DegenerateError",
    "DegenerateDenominatorError",
    "MissingDerivativeError",
    "ZeroVarianceError",
    "SignMismatchError",
    "NoConvergenceError",
    "ConstraintError",
    "EmptyInputError",
    "DivisionByZeroError",
    "ConfigError",
]


class EstimationError(Exception):
    """Base class for all errors raised by this library."""


class DomainError(EstimationError):
    """A parameter value lies outside the open domain of a function family."""


class NonFiniteError(EstimationError):
    """A computed term or input is NaN or infinite."""


class DegenerateError(EstimationError):
    """A required normalizer (moment sum or score derivative) vanishes."""


class DegenerateDenominatorError(DegenerateError):
    """A Newton or ratio denominator is numerically indistinguishable from zero."""


class MissingDerivativeError(EstimationError):
    """An operation needs a derivative that the input does not carry."""


class ZeroVarianceError(EstimationError):
    """A second moment is zero where strict positivity is required."""


class SignMismatchError(EstimationError):
    """Weight signs are inconsistent with the optimal weight signs."""


class NoConvergenceError(EstimationError):
    """An iterative root search exhausted its iteration budget."""


class ConstraintError(EstimationError):
    """A contrast vector violates its defining linear constraint."""


class EmptyInputError(EstimationError):
    """An input sequence that must be nonempty is empty."""


class DivisionByZeroError(EstimationError):
    """A user-supplied function vanishes at a point where it must not."""


class ConfigError(EstimationError):
    """Invalid simulation or command-line configuration."""
