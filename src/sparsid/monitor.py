"""Well-posedness and excitation diagnostics for window updates.

The central object is the information differential between an incoming
block and the block about to be forgotten: Gram(new) - Gram(old). Its
eigenvalues classify an update as informative (strictly positive definite),
redundant (semidefinite boundary), degrading (some direction loses
information and none gains), or mixed (some directions gain, others lose).
The persistent-excitation check is an independent diagnostic on a whole
window.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dictionary import DictionarySpec, build_matrix
from .errors import NonFiniteInput

__all__ = [
    "UtilityReport",
    "PeReport",
    "utility",
    "utility_from_differential",
    "check_pe",
    "pe_from_gram",
    "gram",
    "accumulate",
]

@dataclass(frozen=True)
class UtilityReport:
    """Eigenvalue audit of one window update.

    kappas are the eigenvalues of the information differential, ascending;
    epsilon, the tolerance they are classified with, grows with the
    differential's trace. A redundant (semidefinite) differential is enough
    for the stacking argument (no direction loses information) but not for
    the strict per-step condition, so it proceeds only under warn.
    """

    kappas: np.ndarray
    classification: str
    differential_trace: float
    epsilon: float


@dataclass(frozen=True)
class PeReport:
    """Extreme eigenvalues of the per-sample average Gram over a window, and
    whether the lower one reaches the excitation level."""

    min_avg_eig: float
    max_avg_eig: float
    satisfied: bool


def gram(rows: np.ndarray) -> np.ndarray:
    """Symmetrized Gram matrix rows.T @ rows of a design block (n_rows x n_p).
    A stack of blocks (k x n_rows x n_p) gives the stack of their Grams,
    with the bytes of one call per block. Raises NonFiniteInput when an
    entry overflows, as it does for finite rows of large enough states."""
    g = rows.swapaxes(-1, -2) @ rows
    g = 0.5 * (g + g.swapaxes(-1, -2))
    if not np.isfinite(g).all():
        raise NonFiniteInput("the Gram matrix of the dictionary rows overflows")
    return g


def accumulate(first: np.ndarray, deltas: np.ndarray, xi: float = 1.0) -> np.ndarray:
    """G_j = xi * G_(j-1) + delta_j for a stack of deltas in turn, from G_0 =
    first, written over the deltas: the additions of one step per delta (a
    sum of two has the same bytes in either order, and 1.0 * G is G)."""
    for delta in deltas:
        delta += xi * first
        first = delta
    return deltas


def utility_from_differential(differentials: np.ndarray) -> list:
    """Classify a stack of k precomputed information differentials (k x n_p
    x n_p): a list of k reports, from one eigvalsh."""
    kappas = np.linalg.eigvalsh(differentials)
    traces = differentials.trace(axis1=-2, axis2=-1).tolist()
    return list(map(_classify, kappas, traces))


def _classify(kappas: np.ndarray, trace: float) -> UtilityReport:
    eps = 1e-8 * (1.0 + abs(trace) / len(kappas))
    min_kappa = float(kappas[0])
    if min_kappa > eps:
        classification = "informative"
    elif abs(min_kappa) <= eps:
        classification = "redundant"
    elif float(kappas[-1]) > eps:
        classification = "mixed"
    else:
        classification = "degrading"
    return UtilityReport(
        kappas=kappas,
        classification=classification,
        differential_trace=trace,
        epsilon=eps,
    )


def utility(
    spec: DictionarySpec, new_states: Sequence, old_states: Sequence
) -> UtilityReport:
    """Classify the update that adds new_states and forgets old_states: the
    differential Gram(new) - Gram(old). Either block may be empty."""
    differential = gram(build_matrix(spec, new_states)) - gram(build_matrix(spec, old_states))
    return utility_from_differential(differential[None])[0]


def check_pe(spec: DictionarySpec, states: Sequence, alpha1: float) -> PeReport:
    """Persistent-excitation check on a window of states (see pe_from_gram)."""
    return pe_from_gram(gram(build_matrix(spec, states))[None], len(states), alpha1)[0]


def pe_from_gram(window_grams: np.ndarray, window_len: int, alpha1: float) -> list:
    """Persistent-excitation check on a stack of k window Grams (k x n_p x
    n_p) of windows of window_len samples each: for each, the extreme
    eigenvalues of the per-sample average Gram, the lower one tested against
    the configured excitation level alpha1. A list of k reports, from one
    eigvalsh."""
    if alpha1 <= 0.0:
        raise ValueError("alpha1 must be positive")
    if not window_len:
        raise ValueError("window is empty")
    eigs = np.linalg.eigvalsh(window_grams / window_len)
    return [PeReport(float(e[0]), float(e[-1]), bool(e[0] >= alpha1)) for e in eigs]
