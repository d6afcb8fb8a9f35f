"""Correctness checks on CLI outputs and accuracy scoring against the truth.

Every check returns a list of problems; an empty list means the output
passed. The accuracy scores are computed here from the emitted records and
`truth.json`, independently of the package's own scoring code.
"""

import hashlib
import json
import math

import numpy as np

FIT_KEYS = (
    "step",
    "t",
    "accepted",
    "flagged",
    "reason",
    "classification",
    "kappa_min",
    "kappa_max",
    "coef_mean",
    "coef_std",
    "residual_rms",
    "theta_refreshed",
    "prior_floor",
)
MONITOR_KEYS = (
    "step",
    "t",
    "classification",
    "kappa_min",
    "kappa_max",
    "pe_min_avg_eig",
    "pe_max_avg_eig",
    "pe_satisfied",
)
# CLI output against the in-process replay, and the replay's recursive
# posterior against a batch fit of its window
REPLAY_RTOL = 1e-9
INVARIANT_RTOL = 1e-6


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_records(path, mode: str, expected: int, shape: tuple) -> tuple:
    """Parse a steps.jsonl / monitor.jsonl file and check it.

    shape is (n_outputs, n_columns) of coef_mean. Returns (records, problems).
    """
    keys = FIT_KEYS if mode == "fit" else MONITOR_KEYS
    records, problems = [], []
    try:
        with open(path) as fh:
            for n, line in enumerate(fh, 1):
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    problems.append(f"line {n} is not JSON")
                    return records, problems
    except OSError as exc:
        return records, [f"cannot read output: {exc}"]
    if len(records) != expected:
        problems.append(f"{len(records)} records, expected {expected}")
    for n, record in enumerate(records, 1):
        missing = [k for k in keys if k not in record]
        if missing:
            problems.append(f"record {n} lacks {missing}")
            break
        if mode == "fit":
            try:
                coef = np.asarray(record["coef_mean"], dtype=float)
            except (TypeError, ValueError):
                coef = None
            if coef is None or coef.shape != shape or not np.isfinite(coef).all():
                problems.append(f"record {n} has a bad coef_mean")
                break
        elif not all(_finite(record[k]) for k in ("kappa_min", "pe_min_avg_eig")):
            problems.append(f"record {n} has a non-finite eigenvalue")
            break
    return records, problems


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def rel_diff(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / scale


def compare_final(cli_record: dict, replay_record: dict, mode: str) -> list:
    """The CLI's final record against the replay's final record."""
    if mode == "fit":
        d = rel_diff(cli_record["coef_mean"], replay_record["coef_mean"])
        if not d <= REPLAY_RTOL:
            return [f"final coef_mean differs from the replay by {d:.3g} (relative)"]
        return []
    problems = []
    for key in MONITOR_KEYS:
        a, b = cli_record[key], replay_record[key]
        if isinstance(a, float) and isinstance(b, float):
            if not rel_diff(a, b) <= REPLAY_RTOL:
                problems.append(f"final {key} differs from the replay: {a!r} vs {b!r}")
        elif a != b:
            problems.append(f"final {key} differs from the replay: {a!r} vs {b!r}")
    return problems


# ------------------------------------------------------------------ accuracy


class LorenzTruth:
    """Coefficient truth of the drifting Lorenz system over the degree-2
    dictionary: dx1 = k1 (x2 - x1), dx2 = 28 x1 - x2 - x1 x3,
    dx3 = x1 x2 - k3 x3, with k1(t), k3(t) read from truth.json."""

    def __init__(self, payload: dict, labels: tuple):
        self.t = np.asarray(payload["t"], dtype=float)
        self.k1 = np.asarray(payload["k1"], dtype=float)
        self.k3 = np.asarray(payload["k3"], dtype=float)
        self.col = {label: j for j, label in enumerate(labels)}

    def at(self, t: float) -> np.ndarray:
        i = int(np.clip(np.searchsorted(self.t, t), 0, self.t.size - 1))
        if not math.isclose(self.t[i], t, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError(f"no truth sample at t={t}")
        k1, k3 = self.k1[i], self.k3[i]
        beta = np.zeros((3, len(self.col)))
        c = self.col
        beta[0, c["x1"]], beta[0, c["x2"]] = -k1, k1
        beta[1, c["x1"]], beta[1, c["x2"]], beta[1, c["x1*x3"]] = 28.0, -1.0, -1.0
        beta[2, c["x1*x2"]], beta[2, c["x3"]] = 1.0, -k3
        return beta


class SegmentTruth:
    """Piecewise-constant truth from the "segments" of truth.json."""

    def __init__(self, payload: dict):
        self.starts = np.array([s["start_t"] for s in payload["segments"]], dtype=float)
        self.coeffs = np.array([s["coeffs"] for s in payload["segments"]], dtype=float)

    def at(self, t: float) -> np.ndarray:
        i = int(np.searchsorted(self.starts, t, side="right")) - 1
        return self.coeffs[max(i, 0)][None, :]


def load_truth(path, labels: tuple):
    with open(path) as fh:
        payload = json.load(fh)
    return SegmentTruth(payload) if "segments" in payload else LorenzTruth(payload, labels)


def error_trace(records: list, truth) -> tuple:
    """L2 error of every accepted record's coef_mean; returns (steps, errors, truths)."""
    steps, errors, truths = [], [], []
    for r in records:
        if not r["accepted"]:
            continue
        beta = truth.at(r["t"])
        steps.append(r["step"])
        errors.append(float(np.linalg.norm(np.asarray(r["coef_mean"]) - beta)))
        truths.append(beta)
    return np.array(steps), np.array(errors), truths


def coef_err_med(steps: np.ndarray, errors: np.ndarray, steps_per_window: int) -> float:
    """Median error over the steps after the first window has been replaced."""
    later = errors[steps > steps_per_window]
    return float(np.median(later if later.size else errors))


def switch_recovery_steps(errors: np.ndarray, truths: list) -> float:
    """Steps after the first truth switch until the error re-enters twice
    its final steady level (median of the last 10 errors)."""
    switch = next(
        (i for i in range(1, len(truths)) if not np.array_equal(truths[i], truths[i - 1])),
        None,
    )
    if switch is None:
        raise ValueError("the truth has no switch")
    steady = float(np.median(errors[-10:]))
    below = np.nonzero(errors[switch:] < 2.0 * steady)[0]
    return float(below[0]) if below.size else float(errors.size - switch)
