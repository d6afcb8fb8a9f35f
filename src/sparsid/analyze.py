"""Scoring, interpretability, and tracking diagnostics.

Errors are scored against the coefficient truth read_truth reads from
either format the simulator writes, a block of fit steps at a time, and
appended to errors.csv by ErrorWriter as they are scored; equations render
as readable strings in dictionary column order; tracking_bound gives the
paper's tracking-error bound.
"""

from dataclasses import dataclass

import numpy as np

from .dictionary import DictionarySpec
from .errors import TimestampMismatch
from .posterior import PosteriorState
from .simulate import lorenz_terms

__all__ = [
    "TruthTrajectory",
    "LorenzTruth",
    "read_truth",
    "ErrorWriter",
    "tracking_bound",
    "render_equations",
]


def _leading(covered: np.ndarray) -> int:
    """How many of the leading entries of a boolean vector are true."""
    return len(covered) if covered.all() else int(covered.argmin())


@dataclass(frozen=True)
class TruthTrajectory:
    """Piecewise-constant coefficient truth: betas[i] holds from times[i]
    (inclusive) until the next segment starts."""

    times: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        b = np.asarray(self.betas, dtype=float)
        if t.ndim != 1 or b.ndim != 2 or b.shape[0] != t.size or t.size == 0:
            raise ValueError("need matching 1-d times and 2-d betas")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("segment start times must be strictly increasing")
        object.__setattr__(self, "times", t.copy())
        object.__setattr__(self, "betas", b.copy())

    @property
    def size(self) -> int:
        """The coefficients per time."""
        return self.betas.shape[1]

    def rows(self, times: np.ndarray) -> tuple:
        """(the coefficients at the leading times that a segment covers, one
        row each; None, or the TimestampMismatch of the first time none
        covers)."""
        idx = np.searchsorted(self.times, times, side="right") - 1
        n = _leading(idx >= 0)
        missing = None
        if n < len(times):
            missing = TimestampMismatch(
                f"no ground truth at t={float(times[n])} "
                f"(first segment starts at {self.times[0]})"
            )
        return self.betas[idx[:n]], missing


class LorenzTruth:
    """The drifting Lorenz system's coefficient truth: k1 and k3 sampled at
    every stream time. The coefficients at t are those of the sample within
    1e-9 of t, from simulate.lorenz_terms, output by output over spec's
    columns."""

    def __init__(self, payload: dict, spec: DictionarySpec):
        if spec.state_dim != 3:
            raise ValueError(f"a Lorenz truth needs 3 states, not {spec.state_dim}")
        labels, terms = spec.column_labels, lorenz_terms(0.0, 0.0)
        if missing := [term for _, term, _ in terms if term not in labels]:
            raise ValueError(f"Lorenz terms {missing} are not dictionary columns")
        self.flat = [i * len(labels) + labels.index(term) for i, term, _ in terms]
        self.size = 3 * len(labels)
        ks = np.column_stack([payload["k1"], payload["k3"]])
        self.ks = TruthTrajectory(times=payload["t"], betas=ks)

    def rows(self, times: np.ndarray) -> tuple:
        """(the coefficients at the leading times that have a sample, one
        row each; None, or the TimestampMismatch of the first time that has
        none)."""
        samples = self.ks.times
        i = np.searchsorted(samples, times - 1e-9)
        found = i < samples.size
        found[found] = samples[i[found]] <= times[found] + 1e-9
        n = _leading(found)
        missing = None
        if n < len(times):
            missing = TimestampMismatch(f"no truth sample at t={float(times[n])}")
        beta = np.zeros((n, self.size))
        for column, (_, _, coef) in zip(self.flat, lorenz_terms(*self.ks.betas[i[:n]].T)):
            beta[:, column] = coef
        return beta, missing


def read_truth(payload, spec: DictionarySpec, n_y: int):
    """The truth of a truth.json payload, {"segments": [{"start_t", "coeffs"},
    ...]} or {"case": "lorenz", "t", "k1", "k3"}, as a TruthTrajectory or
    LorenzTruth whose rows(times) gives, for each time, the size =
    n_y x spec.n_columns coefficients of a fit, output by output. Raises
    ValueError for a payload of neither format, a malformed one, or one
    without one coefficient per output and column.
    """
    if not isinstance(payload, dict):
        raise ValueError("truth file must hold a JSON object")
    try:
        if "segments" in payload:
            segments = payload["segments"]
            truth = TruthTrajectory(
                times=[s["start_t"] for s in segments],
                betas=[s["coeffs"] for s in segments],
            )
        elif payload.get("case") == "lorenz":
            truth = LorenzTruth(payload, spec)
        else:
            raise ValueError('truth has neither "segments" nor "case": "lorenz"')
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed truth file: {exc!r}") from exc
    if truth.size != n_y * spec.n_columns:
        raise ValueError(
            f"truth has {truth.size} coefficients per time, but the fit estimates "
            f"{n_y * spec.n_columns} ({n_y} outputs x {spec.n_columns} columns)"
        )
    return truth


class ErrorWriter:
    """errors.csv of a fit, written a read at a time as the fit scores it.

    The file holds t, l2_error, one |error| column per coefficient (output by
    output) and truth_switch, 1 where the truth differs from that of the
    previous scored row. add scores estimates against truth (a
    TruthTrajectory or LorenzTruth) and appends their rows to the file
    before it returns. Its first call creates the file with the header
    (truth.size coefficient columns), so a fit that scores nothing writes
    the header alone; later calls open the file only to append rows.
    Estimates come in the order of their timestamps; `scored` counts them.
    Rows are joined strings with the bytes of csv.writer: float reprs and
    ints, unquoted, CRLF line ends.
    """

    def __init__(self, path, truth):
        self.path = path
        self.truth = truth
        self.scored = 0
        self._previous = None  # the truth of the previous scored row
        abs_errs = [f"abs_err_{j + 1}" for j in range(truth.size)]
        # None once written
        self._header = ",".join(["t", "l2_error", *abs_errs, "truth_switch"]) + "\r\n"

    def add(self, t, coef) -> None:
        """Score estimates: t no time, one time or n increasing ones, coef
        the n estimates, each flat or one list per output. Writes a row for
        each estimate up to the first time the truth does not cover, for
        which it then raises TimestampMismatch."""
        times = np.atleast_1d(np.asarray(t, dtype=float))
        true, missing = self.truth.rows(times)
        n = len(true)
        rows = [] if self._header is None else [self._header]
        if n:
            err = np.reshape(coef, (len(times), -1))[:n] - true
            l2 = np.linalg.norm(err, axis=1)
            previous = true[0] if self._previous is None else self._previous
            before = np.concatenate((previous[None], true[:-1]))
            switch = (true != before).any(axis=1).astype(int)
            self._previous = true[-1]
            # a float's repr round-trips exactly
            columns = times[:n].tolist(), l2.tolist(), np.abs(err).tolist(), switch.tolist()
            rows += [
                f"{time!r},{norm!r},{','.join(map(repr, errs))},{s}\r\n"
                for time, norm, errs, s in zip(*columns)
            ]
            self.scored += n
        if rows:
            with open(self.path, "w" if self._header else "a", encoding="utf-8", newline="") as fh:
                fh.writelines(rows)
            self._header = None
        if missing is not None:
            raise missing


def tracking_bound(delta: float, xi: float, h: float) -> float:
    """Steady-state tracking error bound delta * h / (1 - xi).

    delta bounds the per-step drift of the true parameters, h bounds the
    posterior transfer gain, and xi is the forgetting factor, strictly
    inside (0, 1). The bound diverges as xi approaches 1 from below.
    """
    if not (0.0 < xi < 1.0):
        raise ValueError("xi must be strictly inside (0, 1)")
    if delta < 0.0 or h < 0.0:
        raise ValueError("delta and h must be nonnegative")
    return delta * h / (1.0 - xi)


def _sig4(value: float) -> str:
    out = f"{value:#.4g}"
    return out.rstrip(".") if out.endswith(".") else out


def render_equations(post: PosteriorState, threshold: float) -> list:
    """One readable equation string per output.

    Terms with |mean| >= threshold appear in dictionary column order with
    coefficients and their posterior stds to 4 significant digits; outputs
    with no surviving term render as zero.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    means = post.mean_blocks()
    stds = post.std_blocks()
    labels = post.spec.column_labels
    lines = []
    for i in range(post.n_outputs):
        pieces = []
        for j, label in enumerate(labels):
            coef = float(means[i, j])
            if abs(coef) < threshold:
                continue
            body = f"{_sig4(abs(coef))}·{label} ± {_sig4(float(stds[i, j]))}"
            if not pieces:
                pieces.append(body if coef >= 0.0 else f"-{body}")
            else:
                pieces.append(f"{'+' if coef >= 0.0 else '-'} {body}")
        rhs = " ".join(pieces) if pieces else "0"
        lines.append(f"dx{i + 1}/dt = {rhs}")
    return lines
