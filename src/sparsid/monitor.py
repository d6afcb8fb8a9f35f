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

__all__ = [
    "UtilityReport",
    "PeReport",
    "information_differential",
    "utility",
    "utility_from_differential",
    "check_pe",
    "pe_from_gram",
    "gram",
]

# Note printed on boundary cases: semidefinite differentials are enough for
# the stacking argument (no direction loses information) but not for the
# strict per-step condition, so they only proceed under a permissive policy.
_BOUNDARY_NOTE = (
    "differential is positive semidefinite but not strictly definite; "
    "the update adds no information in at least one direction and "
    "proceeds only under a permissive policy"
)


@dataclass(frozen=True)
class UtilityReport:
    """Eigenvalue audit of one window update.

    kappas are the eigenvalues of the information differential, ascending.
    """

    kappas: np.ndarray
    classification: str
    differential_trace: float
    epsilon: float
    note: str | None = None


@dataclass(frozen=True)
class PeReport:
    """Extreme eigenvalues of the per-sample average Gram over a window."""

    window_len: int
    min_avg_eig: float
    max_avg_eig: float
    alpha1: float
    satisfied: bool


def gram(rows: np.ndarray) -> np.ndarray:
    """Symmetrized Gram matrix rows.T @ rows of a design block (n_rows x n_p).
    A stack of blocks (k x n_rows x n_p) gives the stack of their Grams,
    with the bytes of one call per block."""
    g = rows.swapaxes(-1, -2) @ rows
    return 0.5 * (g + g.swapaxes(-1, -2))


def information_differential(
    spec: DictionarySpec, new_states: Sequence, old_states: Sequence
) -> np.ndarray:
    """Gram(new) - Gram(old), symmetrized. Either block may be empty."""
    return gram(build_matrix(spec, new_states)) - gram(build_matrix(spec, old_states))


def utility_from_differential(differential: np.ndarray) -> UtilityReport | list:
    """Classify a precomputed information differential (n_p x n_p). A stack
    of them (k x n_p x n_p) gives a list of k reports, from one eigvalsh."""
    kappas = np.linalg.eigvalsh(differential)
    traces = differential.trace(axis1=-2, axis2=-1).tolist()
    if differential.ndim == 2:
        return _classify(kappas, traces)
    return list(map(_classify, kappas, traces))


def _classify(kappas: np.ndarray, trace: float) -> UtilityReport:
    eps = 1e-8 * (1.0 + abs(trace) / len(kappas))
    min_kappa = float(kappas[0])
    note = None
    if min_kappa > eps:
        classification = "informative"
    elif abs(min_kappa) <= eps:
        classification = "redundant"
        note = _BOUNDARY_NOTE
    elif float(kappas[-1]) > eps:
        classification = "mixed"
    else:
        classification = "degrading"
    return UtilityReport(
        kappas=kappas,
        classification=classification,
        differential_trace=trace,
        epsilon=eps,
        note=note,
    )


def utility(
    spec: DictionarySpec, new_states: Sequence, old_states: Sequence
) -> UtilityReport:
    """Classify the update that adds new_states and forgets old_states."""
    return utility_from_differential(
        information_differential(spec, new_states, old_states)
    )


def check_pe(spec: DictionarySpec, states: Sequence, alpha1: float) -> PeReport:
    """Persistent-excitation check on a window of states (see pe_from_gram)."""
    return pe_from_gram(gram(build_matrix(spec, states)), len(states), alpha1)


def pe_from_gram(window_gram: np.ndarray, window_len, alpha1: float) -> PeReport | list:
    """Persistent-excitation check on the Gram of a window of window_len
    samples: the extreme eigenvalues of the per-sample average Gram, the
    lower one tested against the configured excitation level alpha1.

    A stack of Grams (k x n_p x n_p) with a sequence of k window lengths
    gives a list of k reports, from one eigvalsh."""
    if alpha1 <= 0.0:
        raise ValueError("alpha1 must be positive")
    if window_gram.ndim == 2:
        if window_len == 0:
            raise ValueError("window is empty")
        eigs = np.linalg.eigvalsh(window_gram / window_len)
        return _pe_report(eigs, window_len, alpha1)
    lens = np.asarray(window_len)
    if not lens.all():
        raise ValueError("window is empty")
    eigs = np.linalg.eigvalsh(window_gram / lens[:, None, None])
    return [_pe_report(e, n, alpha1) for e, n in zip(eigs, lens.tolist())]


def _pe_report(eigs: np.ndarray, window_len: int, alpha1: float) -> PeReport:
    return PeReport(
        window_len=window_len,
        min_avg_eig=float(eigs[0]),
        max_avg_eig=float(eigs[-1]),
        alpha1=alpha1,
        satisfied=bool(eigs[0] >= alpha1),
    )
