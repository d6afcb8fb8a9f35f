"""Gaussian algebra in information form.

Densities are carried as (info_matrix, info_vector) pairs: S = inverse
covariance, b = S @ mean. Multiplication of densities is addition of the
pairs, division is subtraction. Division may produce an improper result
(indefinite S); that is permitted as an intermediate, but conversion back
to moments requires a proper density.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    PrecisionViolation,
    SingularInformation,
)

__all__ = [
    "Moment1D",
    "InformationForm",
    "multiply_information",
    "divide_information",
    "divide_gaussian",
    "pd_tolerance",
]


def _cholesky(matrix: np.ndarray, error: type, message: str) -> np.ndarray:
    """Lower Cholesky factor of matrix; raises error(message) when it has none."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise error(message) from exc


def _cho_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L @ L.T) x = rhs given the lower Cholesky factor L."""
    return np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))


def pd_tolerance(matrix: np.ndarray) -> float:
    """Round-off tolerance for positive-definiteness checks.

    Scales with the mean diagonal magnitude so that checks behave the same
    for information matrices of any size. Eigenvalues above -tol count as
    acceptable round-off.
    """
    d = matrix.shape[0]
    return 1e-10 * (1.0 + abs(float(np.trace(matrix))) / d)


@dataclass(frozen=True)
class Moment1D:
    """One-dimensional Gaussian in moment form."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.variance)):
            raise NonFiniteInput("moment parameters must be finite")
        if self.variance <= 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    def precision(self) -> float:
        return 1.0 / self.variance

    def to_information(self) -> "InformationForm":
        p = 1.0 / self.variance
        return InformationForm(np.array([[p]]), np.array([self.mean * p]))


class InformationForm:
    """Multivariate Gaussian in information (canonical) form.

    Parameters
    ----------
    info_matrix : (d, d) array
        Symmetric information matrix S. May be indefinite for improper
        intermediates produced by division.
    info_vector : (d,) array
        Information vector b = S @ mean.
    """

    __slots__ = ("info_matrix", "info_vector")

    def __init__(self, info_matrix: np.ndarray, info_vector: np.ndarray):
        s = np.asarray(info_matrix, dtype=float)
        b = np.asarray(info_vector, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise DimensionMismatch(f"info_matrix must be square, got {s.shape}")
        if b.shape != (s.shape[0],):
            raise DimensionMismatch(
                f"info_vector shape {b.shape} does not match matrix {s.shape}"
            )
        if not (np.isfinite(s).all() and np.isfinite(b).all()):
            raise NonFiniteInput("information parameters must be finite")
        asym = np.max(np.abs(s - s.T)) if s.size else 0.0
        scale = max(1.0, float(np.max(np.abs(s)))) if s.size else 1.0
        if asym > 1e-12 * scale:
            raise ValueError(f"info_matrix asymmetry {asym:.3e} exceeds tolerance")
        self.info_matrix = s.copy()
        self.info_vector = b.copy()

    @property
    def dim(self) -> int:
        return self.info_matrix.shape[0]

    def is_proper(self) -> bool:
        """True when S factorizes, i.e. moments are defined."""
        try:
            np.linalg.cholesky(self.info_matrix)
        except np.linalg.LinAlgError:
            return False
        return True

    def mean(self) -> np.ndarray:
        """Posterior mean S^-1 b. Requires a proper density."""
        lower = _cholesky(
            self.info_matrix,
            NotPositiveDefinite,
            "information matrix is not positive definite; mean undefined",
        )
        return _cho_solve(lower, self.info_vector)

    def covariance(self) -> np.ndarray:
        """Covariance S^-1. Requires a proper density."""
        lower = _cholesky(
            self.info_matrix, SingularInformation, "information matrix cannot be factorized"
        )
        cov = _cho_solve(lower, np.eye(self.dim))
        return 0.5 * (cov + cov.T)

    def to_moment1d(self) -> Moment1D:
        """Exact scalar conversion; only valid for dim == 1."""
        if self.dim != 1:
            raise DimensionMismatch("to_moment1d requires a 1-dimensional form")
        p = float(self.info_matrix[0, 0])
        if p <= 0.0:
            raise NotPositiveDefinite("scalar information must be positive")
        return Moment1D(mean=float(self.info_vector[0]) / p, variance=1.0 / p)

    def __repr__(self):
        return f"InformationForm(dim={self.dim})"


def multiply_information(a: InformationForm, b: InformationForm) -> InformationForm:
    """Product of two densities: add information."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims {a.dim} and {b.dim} differ")
    return InformationForm(
        a.info_matrix + b.info_matrix, a.info_vector + b.info_vector
    )


def divide_information(
    num: InformationForm, den: InformationForm, require_proper: bool = True
) -> InformationForm:
    """Density ratio: subtract information.

    With require_proper (the default) the difference matrix must be positive
    definite up to round-off; an ill-posed division raises
    NotPositiveDefinite. Pass require_proper=False to allow improper
    intermediates.
    """
    if num.dim != den.dim:
        raise DimensionMismatch(f"dims {num.dim} and {den.dim} differ")
    s = num.info_matrix - den.info_matrix
    b = num.info_vector - den.info_vector
    if require_proper:
        min_eig = float(np.linalg.eigvalsh(s)[0])
        if min_eig <= -pd_tolerance(s):
            raise NotPositiveDefinite(
                f"division produces indefinite information (min eig {min_eig:.3e})"
            )
    return InformationForm(s, b)


def divide_gaussian(num: Moment1D, den: Moment1D) -> Moment1D:
    """Scalar density ratio in moment form.

    Proper only when the numerator variance is strictly smaller than the
    denominator variance; otherwise raises PrecisionViolation.
    """
    if num.variance >= den.variance:
        raise PrecisionViolation(
            f"numerator variance {num.variance} must be smaller than "
            f"denominator variance {den.variance}"
        )
    p_num = 1.0 / num.variance
    p_den = 1.0 / den.variance
    p_out = p_num - p_den
    mean = (num.mean * p_num - den.mean * p_den) / p_out
    return Moment1D(mean=mean, variance=1.0 / p_out)
