"""Online windowed estimator: recursive information updates with forgetting.

The state is what all outputs share: the window Gram G = Psi.T @ Psi and
cross-moment C = Psi.T @ Y. Each step discounts both by the forgetting
factor and adds the new batch; with forget > 0 it also divides out as many
of the oldest buffered samples as enter, so the window stays full. The
prior is not part of that recursion: every posterior is assembled from
(G, C) and the prior precision in force, so discounting never erodes the
prior (the posterior never falls below it) and a prior refresh only swaps
it. The well-posedness of every slide is audited (audit_run, the one place
that forms Gram(new) - Gram(old) from the window's rows) before it is
applied; what happens on a violation is a policy choice.

Operating guidance: division (forget > 0) pairs naturally with
forgetting_factor == 1 (a pure sliding window), while forgetting_factor < 1
pairs with forget == 0 (pure exponential discount). Combining both drains
window information toward the prior floor on stationary streams, because
the forgotten block is divided out at full strength while its stored copy
has already been discounted.

The window code (WindowBuffer, audit_run) needs no posterior, so
`posterior` is imported only where a posterior is built (init, step,
snapshot), and a monitor process never loads it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .dictionary import DictionarySpec, Sample, build_matrix
from .errors import ConditionViolated, InsufficientWarmup
from .monitor import UtilityReport, gram, utility_from_differential

if TYPE_CHECKING:
    from .posterior import HorseshoeState, NoiseModel, PosteriorState

__all__ = [
    "RecursionConfig",
    "WindowBuffer",
    "audit_run",
    "StepOutcome",
    "RecursionState",
    "init",
    "step",
    "snapshot",
    "step_record",
]

POLICIES = ("reject", "warn", "defer")
THETA_MODES = ("adaptive", "fixed")


@dataclass(frozen=True)
class RecursionConfig:
    """Window geometry and update behavior.

    window: buffer capacity and warmup length.
    batch_in: new samples ingested per step, at least 1.
    forget: 0 to batch_in. With forget > 0 the buffer is a sliding window:
        each accepted slide divides out as many of the oldest samples as
        enter (min(batch, window) of a batch, a merged deferred one too), so
        the posterior always holds exactly the buffered samples. With
        forget == 0 nothing is divided out. Beyond that the value of forget
        matters only to init: the warmup audit divides out the forget oldest
        warmup samples, and check_columns needs window + batch_in - forget
        above the column count.
    forgetting_factor: exponential discount on history, in (0, 1].
    policy: what to do when an update fails the well-posedness condition
        (reject it, warn and apply anyway, or defer the batch and retry it
        aggregated with the next one; a deferred batch that has grown to
        the window length is dropped like a rejected one).
    theta_mode: adaptive refreshes the prior scales from the posterior every
        refresh_every ingested samples (default: once per window refill);
        fixed never touches them.
    """

    window: int
    batch_in: int
    forget: int
    forgetting_factor: float = 1.0
    policy: str = "warn"
    theta_mode: str = "adaptive"
    refresh_every: int | None = None

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.batch_in < 1:
            raise ValueError("batch_in must be at least 1")
        if self.forget < 0:
            raise ValueError("forget must be nonnegative")
        if self.forget > self.window:
            raise ValueError("cannot forget more samples than the window holds")
        if self.forget > self.batch_in:
            raise ValueError("cannot forget more samples per step than batch_in")
        if not (0.0 < self.forgetting_factor <= 1.0):
            raise ValueError("forgetting_factor (xi) must be in (0, 1]")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.theta_mode not in THETA_MODES:
            raise ValueError(f"theta_mode must be one of {THETA_MODES}")
        if self.refresh_every is not None and self.refresh_every < 1:
            raise ValueError("refresh_every must be positive when given")

    def check_columns(self, n_columns: int) -> None:
        """Raise ValueError unless the geometry can identify n_columns
        dictionary columns: window + batch_in - forget must exceed it."""
        if self.window + self.batch_in - self.forget <= n_columns:
            raise ValueError(
                f"window + batch_in - forget must exceed the {n_columns} "
                "dictionary columns"
            )


class WindowBuffer:
    """Fixed-capacity FIFO window of samples, oldest first, each kept with
    its dictionary row.

    The rows live in one array of twice the capacity, the buffered ones
    contiguous from `_lo`; an extend that would run past its end first moves
    them to the front, so the oldest rows are always one slice. The first
    extend fixes the row width. An extend drops the oldest samples that no
    longer fit, with their rows.
    """

    __slots__ = ("capacity", "_items", "_rows", "_lo", "total_ingested")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self._rows = None
        self._lo = 0
        self.total_ingested = 0

    def __len__(self) -> int:
        return len(self._items)

    def extend(self, samples, rows: np.ndarray) -> None:
        """Push samples with their dictionary rows, one row per sample."""
        samples = list(samples)
        if len(rows) != len(samples):
            raise ValueError(f"{len(samples)} samples but {len(rows)} rows")
        if self._rows is None:
            self._rows = np.empty((2 * self.capacity, rows.shape[1]))
        rows = rows[-self.capacity :]
        live = min(len(self._items), self.capacity - len(rows))  # rows that stay
        lo = self._lo + len(self._items) - live
        if lo + live + len(rows) > len(self._rows):
            self._rows[:live] = self._rows[lo : lo + live]
            lo = 0
        self._rows[lo + live : lo + live + len(rows)] = rows
        self._lo = lo
        self._items.extend(samples)
        self.total_ingested += len(samples)

    def oldest(self, k: int) -> list:
        if k > len(self._items):
            raise ValueError(f"buffer holds {len(self._items)} samples, asked for {k}")
        return list(islice(self._items, k))

    def oldest_rows(self, k: int) -> np.ndarray:
        """The dictionary rows of the k oldest samples: a view, valid until
        the next extend."""
        if k > len(self._items):
            raise ValueError(f"buffer holds {len(self._items)} samples, asked for {k}")
        return self._rows[self._lo : self._lo + k]

    def items(self) -> list:
        return list(self._items)

    @property
    def newest(self) -> Sample:
        return self._items[-1]


@dataclass(frozen=True)
class StepOutcome:
    """Result of one recursion step."""

    step_index: int
    timestamp: float
    accepted: bool
    flagged: bool
    reason: str | None
    utility: UtilityReport
    residual_rms: float | None
    theta_refreshed: bool
    prior_floor: bool


class RecursionState:
    """Mutable estimator state; exactly one writer (the step function).

    gram (n_p x n_p) and cross (n_p x n_y) are the discounted window
    moments Psi.T @ Psi and Psi.T @ Y; s_blocks and b_blocks are read-only
    views of the posterior they give (see snapshot).
    """

    __slots__ = (
        "spec",
        "config",
        "noise",
        "horseshoe",
        "buffer",
        "gram",
        "cross",
        "step_count",
        "samples_since_refresh",
        "pending",
        "init_flagged",
    )

    def __init__(self, spec, config, noise, horseshoe, buffer, window_gram, cross):
        self.spec = spec
        self.config = config
        self.noise = noise
        self.horseshoe = horseshoe
        self.buffer = buffer
        self.gram = window_gram
        self.cross = cross
        self.step_count = 0
        self.samples_since_refresh = 0
        self.pending: list = []
        self.init_flagged = False

    @property
    def s_blocks(self) -> np.ndarray:
        return snapshot(self).s_blocks

    @property
    def b_blocks(self) -> np.ndarray:
        return snapshot(self).b_blocks


def _check_increasing(samples, after: float | None = None) -> None:
    prev = after
    for s in samples:
        if prev is not None and s.timestamp <= prev:
            raise ValueError(
                f"timestamps must be strictly increasing, got {s.timestamp} after {prev}"
            )
        prev = s.timestamp


def init(
    spec: DictionarySpec,
    config: RecursionConfig,
    warmup: list,
    noise: NoiseModel,
    horseshoe: HorseshoeState | None = None,
) -> RecursionState:
    """Start the estimator from a warmup window.

    Requires at least `window` warmup samples (the last `window` are used),
    window geometry large enough to identify every column, and a
    well-posed warmup window. The initial posterior is the exact batch fit
    of the retained window.
    """
    from .posterior import batch_fit, batch_fit_adaptive, initial_horseshoe, window_moments

    if len(warmup) < config.window:
        raise InsufficientWarmup(
            f"need at least {config.window} warmup samples, got {len(warmup)}"
        )
    config.check_columns(spec.n_columns)
    if horseshoe is None:
        horseshoe = initial_horseshoe(spec, noise.n_outputs)
    retained = list(warmup[-config.window :])
    _check_increasing(retained)

    rows = build_matrix(spec, [s.state for s in retained])
    window_gram, cross = window_moments(spec, retained, noise.n_outputs, rows)
    report = utility_from_differential(window_gram - gram(rows[: config.forget]))
    init_flagged = False
    if report.classification != "informative":
        msg = (
            f"warmup window fails the well-posedness condition "
            f"(classification: {report.classification})"
        )
        if config.policy == "warn":
            init_flagged = True
        else:
            # defer has no meaning before a window exists; treat like reject
            raise ConditionViolated(msg)

    fit = batch_fit_adaptive if config.theta_mode == "adaptive" else batch_fit
    horseshoe = fit(spec, retained, noise, horseshoe, moments=(window_gram, cross)).horseshoe

    buffer = WindowBuffer(config.window)
    buffer.extend(retained, rows)
    state = RecursionState(spec, config, noise, horseshoe, buffer, window_gram, cross)
    state.init_flagged = init_flagged
    return state


def audit_run(
    spec: DictionarySpec, buffer: WindowBuffer, batches: list, forget: int
) -> tuple:
    """Audit the window's slide for each batch in turn without applying
    any: the buffer is left as it is.

    The buffer must be full and all batches of one length b. The slide rule:
    e = min(b, capacity) samples of a batch enter (its last e) and the e
    oldest leave; with forget == 0 all b enter, none is divided out, and the
    full window pushes out its b oldest unaudited. Either way a full window
    stays full, and applying the slides is one `buffer.extend` of the
    entering samples with their psi_new rows.

    Batch i's old rows (psi_old, or pushed when forget == 0) are the e rows
    from position i*e of [buffer rows; rows of the entering samples], so
    every block is a view of that sequence; while k*e fits in the window
    they are views of the buffer's rows, valid until its next extend. One
    build_matrix call, one stacked gram and one stacked eigvalsh serve all
    k batches.

    Returns (the entering samples of each batch; psi_new, psi_old and the
    pushed rows as k x e x n_p stacks, psi_old empty (k x 0 x n_p) when
    forget == 0 and pushed empty when forget > 0; the k differentials
    Gram(psi_new) - Gram(psi_old) as a k x n_p x n_p stack; their
    UtilityReports)."""
    capacity = buffer.capacity
    if len(buffer) != capacity:
        raise ValueError(f"buffer holds {len(buffer)} samples, not its capacity {capacity}")
    lengths = set(map(len, batches))
    if len(lengths) > 1:
        raise ValueError(f"batches of unequal lengths {sorted(lengths)}")
    k, n_p = len(batches), spec.n_columns
    b = lengths.pop() if lengths else 0
    e = min(b, capacity) if forget else b
    entering = [batch[b - e :] for batch in batches]
    rows = build_matrix(spec, [s.state for batch in entering for s in batch])
    # the k*e oldest rows of [buffer rows; rows], e per batch
    lead = buffer.oldest_rows(min(capacity, k * e))
    if k * e > capacity:
        lead = np.concatenate((lead, rows[: k * e - capacity]))
    psi_new, lead = rows.reshape(k, e, n_p), lead.reshape(k, e, n_p)
    psi_old, pushed = (lead, lead[:, :0]) if forget else (lead[:, :0], lead)
    differentials = gram(psi_new) - gram(psi_old)
    return (
        entering, psi_new, psi_old, pushed, differentials,
        utility_from_differential(differentials),
    )


def step(state: RecursionState, new_samples: list) -> StepOutcome:
    """Ingest one batch: audit its slide (audit_run), apply it with one
    buffer extend or not (per policy and the PD guard), refresh scales.

    Returns an outcome describing what happened; the emitted record for
    streaming consumers is built from it by step_record.
    """
    from .posterior import posterior_from_moments, refresh_horseshoe

    cfg = state.config
    if len(new_samples) != cfg.batch_in:
        raise ValueError(
            f"expected a batch of {cfg.batch_in} samples, got {len(new_samples)}"
        )
    buffer = state.buffer
    batch = state.pending + list(new_samples)
    _check_increasing(batch, after=buffer.newest.timestamp)
    entering, psi_new, psi_old, _, differentials, reports = audit_run(
        state.spec, buffer, [batch], cfg.forget
    )
    batch, psi_new, psi_old = entering[0], psi_new[0], psi_old[0]
    differential, report = differentials[0], reports[0]
    n_y = state.noise.n_outputs
    timestamp = batch[-1].timestamp

    flagged = False
    reason = None
    if report.classification != "informative":
        if cfg.policy == "reject":
            return _rejected(
                state, report, timestamp,
                reason=f"update {report.classification}; rejected by policy",
            )
        if cfg.policy == "defer":
            if len(batch) >= buffer.capacity:
                # merging more cannot help: the batch already replaces a
                # whole window, so retrying it would stall the estimator
                return _rejected(
                    state, report, timestamp,
                    reason=(
                        f"update {report.classification}; deferred batch "
                        "reached the window length, dropped"
                    ),
                )
            outcome = _rejected(
                state, report, timestamp,
                reason=f"update {report.classification}; deferred for aggregation",
            )
            state.pending = batch
            return outcome
        flagged = True
        reason = f"update {report.classification}; applied under warn policy"

    y_new = np.asarray([s.observation for s in batch], dtype=float).reshape(
        len(batch), n_y
    )
    old = buffer.oldest(len(psi_old))
    y_old = np.asarray([s.observation for s in old], dtype=float).reshape(len(old), n_y)
    xi = cfg.forgetting_factor
    new_gram = xi * state.gram + differential
    new_cross = xi * state.cross + (psi_new.T @ y_new - psi_old.T @ y_old)
    candidate = posterior_from_moments(
        state.spec, state.noise, state.horseshoe, new_gram, new_cross,
        buffer.total_ingested + len(batch),
    )
    if not candidate.is_positive_definite():
        # hard invariant: the posterior must stay proper, even under warn
        return _rejected(
            state, report, timestamp,
            reason="update would make the information matrix indefinite; rolled back",
        )

    state.gram = new_gram
    state.cross = new_cross
    state.pending = []
    buffer.extend(batch, psi_new)
    state.step_count += 1
    state.samples_since_refresh += len(batch)

    theta_refreshed = False
    cadence = cfg.refresh_every if cfg.refresh_every is not None else cfg.window
    if cfg.theta_mode == "adaptive" and state.samples_since_refresh >= cadence:
        state.horseshoe = refresh_horseshoe(snapshot(state))
        theta_refreshed = True
        state.samples_since_refresh = 0

    resid = y_new - psi_new @ snapshot(state).mean_blocks().T
    return StepOutcome(
        step_index=state.step_count,
        timestamp=timestamp,
        accepted=True,
        flagged=flagged or (state.init_flagged and state.step_count == 1),
        reason=reason,
        utility=report,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        theta_refreshed=theta_refreshed,
        prior_floor=xi < 1.0,
    )


def _rejected(state, report, timestamp, reason):
    """Outcome of a step that leaves the posterior as it was and drops the
    batch; defer parks it in state.pending afterwards."""
    state.pending = []
    state.step_count += 1
    return StepOutcome(
        step_index=state.step_count,
        timestamp=timestamp,
        accepted=False,
        flagged=True,
        reason=reason,
        utility=report,
        residual_rms=None,
        theta_refreshed=False,
        prior_floor=False,
    )


def snapshot(state: RecursionState) -> PosteriorState:
    """Immutable copy of the current posterior."""
    from .posterior import posterior_from_moments

    return posterior_from_moments(
        state.spec,
        state.noise,
        state.horseshoe,
        state.gram,
        state.cross,
        state.buffer.total_ingested,
    )


def step_record(state: RecursionState, outcome: StepOutcome) -> dict:
    """JSON-serializable record emitted once per step."""
    post = snapshot(state)
    return {
        "step": outcome.step_index,
        "t": float(outcome.timestamp),
        "accepted": bool(outcome.accepted),
        "flagged": bool(outcome.flagged),
        "reason": outcome.reason,
        "classification": outcome.utility.classification,
        "kappa_min": float(outcome.utility.kappas[0]),
        "kappa_max": float(outcome.utility.kappas[-1]),
        "coef_mean": post.mean_blocks().tolist(),
        "coef_std": post.std_blocks().tolist(),
        "residual_rms": outcome.residual_rms,
        "theta_refreshed": bool(outcome.theta_refreshed),
        "prior_floor": bool(outcome.prior_floor),
    }
