"""Named error conditions shared across the library.

Every failure mode that callers are expected to catch has its own type;
anything else surfaces as a plain ValueError.
"""


class SparsidError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(SparsidError):
    """Operands or inputs have incompatible shapes."""


class NonFiniteInput(SparsidError):
    """An input contains NaN or infinity, or overflows a dictionary row or Gram."""


class NotPositiveDefinite(SparsidError):
    """A matrix that must be positive definite is not (beyond round-off), so
    it cannot be factorized and the posterior moments are undefined."""


class InsufficientWarmup(SparsidError):
    """Fewer warmup samples than the configured window length."""


class ConditionViolated(SparsidError):
    """The well-posedness condition for a window update does not hold."""


class TimestampMismatch(SparsidError):
    """A timestamp falls outside the range covered by the ground truth."""


class NonFiniteState(SparsidError):
    """Numerical integration produced a non-finite state (blow-up)."""
