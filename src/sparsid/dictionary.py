"""Candidate-term dictionary: a polynomial library.

Column order is fixed and fully determined by the spec fields: the bias
column (when enabled) comes first, then monomials in graded lexicographic
order (total degree, then variable index). Stacking more rows can only
add information: for any row split, Gram(all) - Gram(subset) is positive
semidefinite.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput

__all__ = [
    "DictionarySpec",
    "Sample",
    "build_matrix",
    "column_count",
    "stack_rows",
]


def _monomial_exponents(state_dim: int, degree: int, include_bias: bool):
    """Variable-index tuples per monomial, graded-lex order. () is the bias."""
    lowest = 0 if include_bias else 1
    out = []
    for total in range(lowest, degree + 1):
        out.extend(itertools.combinations_with_replacement(range(state_dim), total))
    return out


def column_count(state_dim: int, degree: int, include_bias: bool) -> int:
    """The number of dictionary columns, counted without enumerating them:
    comb(state_dim + degree, degree) monomials of total degree up to
    degree, less the bias when it is left out."""
    return math.comb(state_dim + degree, degree) - (not include_bias)


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


def stack_rows(rows, n_y: int) -> tuple:
    """The (t, x, y) arrays of a block of rows, each C-contiguous: the
    timestamps (n,), states (n, n_x) and observations (n, n_y).

    rows is either that tuple of three arrays, checked here for finite
    values, or a list of Samples, each checked when it was made, stacked in
    one pass. Either form is checked for its shapes (n_y outputs).
    """
    if isinstance(rows, tuple):
        t, x, y = (np.ascontiguousarray(a, dtype=float) for a in rows)
        if not (np.isfinite(t).all() and np.isfinite(x).all() and np.isfinite(y).all()):
            raise NonFiniteInput("timestamps, states and observations must be finite")
    else:
        t = np.array([s.timestamp for s in rows], dtype=float)
        x = np.array([s.state for s in rows])
        y = np.array([s.observation for s in rows])
    if t.ndim != 1 or x.ndim != 2 or y.ndim != 2 or not len(t) == len(x) == len(y):
        raise DimensionMismatch(
            f"need one row per sample, got times {t.shape}, states {x.shape}, "
            f"observations {y.shape}"
        )
    if y.shape[1] != n_y:
        raise DimensionMismatch(f"observations have {y.shape[1]} outputs, not {n_y}")
    return t, x, y


@dataclass(frozen=True)
class DictionarySpec:
    """The candidate-term library: every monomial of the state up to a
    total degree, and nothing else.

    Parameters
    ----------
    state_dim : int
        Number of state variables.
    poly_degree : int
        Maximum total degree of the monomials.
    include_bias : bool
        Whether the constant column is present (first column when it is).

    The spec derives column_labels from these three, one label per column
    in column order ("1", "x1", ..., "x1*x2", ..., "x3^2").
    """

    state_dim: int
    poly_degree: int
    include_bias: bool = True
    column_labels: tuple = field(init=False)

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError("state_dim must be at least 1")
        if self.poly_degree < 0:
            raise ValueError("poly_degree must be nonnegative")
        exps = _monomial_exponents(self.state_dim, self.poly_degree, self.include_bias)
        labels = [_monomial_label(c) for c in exps]
        if not labels:
            raise ValueError("dictionary has no columns")
        object.__setattr__(self, "column_labels", tuple(labels))
        object.__setattr__(self, "_products", _product_plan(exps))

    @property
    def n_columns(self) -> int:
        return len(self.column_labels)


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
    if not np.isfinite(cols).all():
        raise NonFiniteInput("dictionary evaluation produced non-finite values")
    return cols
