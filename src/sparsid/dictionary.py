"""Candidate-term dictionary: polynomial library plus known drift terms.

Column order is fixed and fully determined by the spec fields: the bias
column (when enabled) comes first, then monomials in graded lexicographic
order (total degree, then variable index), then any named drift functions
in their given order. Stacking more rows can only add information: for any
row split, Gram(all) - Gram(subset) is positive semidefinite.
"""

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput

__all__ = ["DictionarySpec", "Sample", "build_row", "build_matrix"]


DriftFn = Callable[[np.ndarray], float]


def _monomial_exponents(state_dim: int, degree: int, include_bias: bool):
    """Variable-index tuples per monomial, graded-lex order. () is the bias."""
    lowest = 0 if include_bias else 1
    out = []
    for total in range(lowest, degree + 1):
        out.extend(itertools.combinations_with_replacement(range(state_dim), total))
    return out


def _product_plan(exps: list) -> tuple:
    """How build_matrix fills the monomials of degree 2 and up, one degree
    block at a time: (first column, stop column, prefix columns, variables).
    Each column is the column of its combo without the last variable, times
    that variable, so the factors of every monomial multiply left to right."""
    column = {combo: j for j, combo in enumerate(exps)}
    plan = []
    for degree in range(2, max(map(len, exps), default=0) + 1):
        block = [j for j, combo in enumerate(exps) if len(combo) == degree]
        plan.append(
            (
                block[0],
                block[-1] + 1,
                np.array([column[exps[j][:-1]] for j in block]),
                np.array([exps[j][-1] for j in block]),
            )
        )
    return tuple(plan)


def _monomial_label(combo: tuple) -> str:
    if not combo:
        return "1"
    parts = []
    for var, reps in itertools.groupby(combo):
        power = len(list(reps))
        parts.append(f"x{var + 1}" if power == 1 else f"x{var + 1}^{power}")
    return "*".join(parts)


@dataclass(frozen=True)
class Sample:
    """One stream element: a timestamp, the state, and the regression target
    observed at that state (for ODE identification, the noisy derivative)."""

    timestamp: float
    state: np.ndarray
    observation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state", np.asarray(self.state, dtype=float))
        object.__setattr__(
            self, "observation", np.atleast_1d(np.asarray(self.observation, dtype=float))
        )
        if not np.isfinite(self.timestamp):
            raise NonFiniteInput("timestamp must be finite")
        if not (np.isfinite(self.state).all() and np.isfinite(self.observation).all()):
            raise NonFiniteInput("state/observation must be finite")


@dataclass(frozen=True)
class DictionarySpec:
    """Configuration of the candidate-term library.

    Parameters
    ----------
    state_dim : int
        Number of state variables.
    poly_degree : int
        Maximum total degree of the monomial block.
    include_bias : bool
        Whether the constant column is present (first column when it is).
    known_drift : sequence of (name, fn)
        Extra columns evaluated as scalar functions of the state, appended
        after the monomials.
    column_scaling : optional per-column multipliers
        Applied to every built row; defaults to no scaling.
    prior_scale_override : optional per-column prior scales
        Entries that are not None pin the local prior scale of that column
        (the adaptive refresh leaves them untouched). Defaults to treating
        all columns identically.
    """

    state_dim: int
    poly_degree: int
    include_bias: bool = True
    known_drift: tuple = ()
    column_scaling: tuple | None = None
    prior_scale_override: tuple | None = None
    column_labels: tuple = field(init=False)

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError("state_dim must be at least 1")
        if self.poly_degree < 0:
            raise ValueError("poly_degree must be nonnegative")
        object.__setattr__(self, "known_drift", tuple(self.known_drift))
        for entry in self.known_drift:
            if len(entry) != 2 or not isinstance(entry[0], str) or not callable(entry[1]):
                raise ValueError("known_drift entries must be (name, callable) pairs")
        exps = _monomial_exponents(self.state_dim, self.poly_degree, self.include_bias)
        labels = [_monomial_label(c) for c in exps]
        labels.extend(name for name, _ in self.known_drift)
        if len(labels) != len(set(labels)):
            raise ValueError("column labels must be distinct")
        if not labels:
            raise ValueError("dictionary has no columns")
        object.__setattr__(self, "column_labels", tuple(labels))
        object.__setattr__(self, "_products", _product_plan(exps))
        for name, values in (
            ("column_scaling", self.column_scaling),
            ("prior_scale_override", self.prior_scale_override),
        ):
            if values is not None and len(values) != len(labels):
                raise DimensionMismatch(
                    f"{name} must have one entry per column ({len(labels)})"
                )
        if self.column_scaling is not None:
            object.__setattr__(
                self, "column_scaling", tuple(float(c) for c in self.column_scaling)
            )

    @property
    def n_columns(self) -> int:
        return len(self.column_labels)


def build_row(spec: DictionarySpec, state: np.ndarray) -> np.ndarray:
    """Evaluate every dictionary column at one state."""
    return build_matrix(spec, np.asarray(state, dtype=float)[None, :])[0]


def build_matrix(spec: DictionarySpec, states: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate the dictionary at a block of states.

    Parameters
    ----------
    states : (t, state_dim) array or sequence of state vectors

    Returns
    -------
    (t, n_columns) array; an empty block gives a (0, n_columns) array
    """
    if len(states) == 0:
        return np.zeros((0, spec.n_columns))
    x = np.asarray(states, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.state_dim:
        raise DimensionMismatch(
            f"states must have shape (t, {spec.state_dim}), got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise NonFiniteInput("states contain non-finite values")
    cols = np.empty((x.shape[0], spec.n_columns))
    first = int(spec.include_bias)
    if spec.include_bias:
        cols[:, 0] = 1.0
    if spec.poly_degree >= 1:
        cols[:, first : first + spec.state_dim] = x
    for start, stop, prefix, var in spec._products:
        cols[:, start:stop] = cols[:, prefix] * x[:, var]
    offset = spec.n_columns - len(spec.known_drift)
    for j, (_, fn) in enumerate(spec.known_drift):
        cols[:, offset + j] = [float(fn(row)) for row in x]
    if spec.column_scaling is not None:
        cols *= np.asarray(spec.column_scaling)
    if not np.isfinite(cols).all():
        raise NonFiniteInput("dictionary evaluation produced non-finite values")
    return cols
