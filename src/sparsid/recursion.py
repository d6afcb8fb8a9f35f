"""Online windowed estimator: recursive information updates with forgetting.

Each step ingests a batch of new samples, divides out the oldest buffered
block, discounts history by the forgetting factor, and re-adds the prior
information lost to the discount so the posterior never falls below its
prior. The well-posedness of every update is audited through the monitor
before it is applied; what happens on a violation is a policy choice.

Operating guidance: division (forget > 0) pairs naturally with
forgetting_factor == 1 (a pure sliding window), while forgetting_factor < 1
pairs with forget == 0 (pure exponential discount). Combining both drains
window information toward the prior floor on stationary streams, because
the forgotten block is divided out at full strength while its stored copy
has already been discounted.
"""

import time
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy import linalg

from .dictionary import DictionarySpec, Sample, build_matrix
from .errors import ConditionViolated, InsufficientWarmup
from .monitor import UtilityReport, gram, utility_from_differential
from .posterior import (
    HorseshoeState,
    NoiseModel,
    PosteriorState,
    batch_fit,
    batch_fit_adaptive,
    initial_horseshoe,
    refresh_horseshoe,
)

__all__ = [
    "RecursionConfig",
    "WindowBuffer",
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
    batch_in: new samples ingested per step.
    forget: oldest buffered samples divided out per step. With forget > 0
        the buffer is a sliding window: a batch that would overflow it also
        divides out the overflow (never more than the buffer holds), so the
        posterior always holds exactly the buffered samples. With
        forget == 0 nothing is divided out.
    forgetting_factor: exponential discount on history, in (0, 1].
    policy: what to do when an update fails the well-posedness condition
        (reject it, warn and apply anyway, or defer the batch and retry it
        aggregated with the next one).
    theta_mode: adaptive refreshes the prior scales from the posterior every
        refresh_every ingested samples (default: once per window refill);
        fixed never touches them.
    condition_on_discounted: evaluate the condition against the discounted
        old block instead of the literal one.
    """

    window: int
    batch_in: int
    forget: int
    forgetting_factor: float = 1.0
    policy: str = "warn"
    theta_mode: str = "adaptive"
    refresh_every: int | None = None
    condition_on_discounted: bool = False

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.batch_in < 0 or self.forget < 0:
            raise ValueError("batch_in and forget must be nonnegative")
        if self.forget > self.window:
            raise ValueError("cannot forget more samples than the window holds")
        if not (0.0 < self.forgetting_factor <= 1.0):
            raise ValueError("forgetting_factor must be in (0, 1]")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.theta_mode not in THETA_MODES:
            raise ValueError(f"theta_mode must be one of {THETA_MODES}")
        if self.refresh_every is not None and self.refresh_every < 1:
            raise ValueError("refresh_every must be positive when given")


class WindowBuffer:
    """Fixed-capacity FIFO window of samples, oldest first.

    Pushing into a full window drops its oldest sample.
    """

    __slots__ = ("capacity", "_items", "total_ingested")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self.total_ingested = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, sample: Sample) -> None:
        self._items.append(sample)
        self.total_ingested += 1

    def extend(self, samples) -> None:
        samples = list(samples)
        self._items.extend(samples)
        self.total_ingested += len(samples)

    def oldest(self, k: int) -> list:
        if k > len(self._items):
            raise ValueError(f"buffer holds {len(self._items)} samples, asked for {k}")
        return list(islice(self._items, k))

    def pop_oldest(self, k: int) -> list:
        out = self.oldest(k)
        for _ in range(k):
            self._items.popleft()
        return out

    def items(self) -> list:
        return list(self._items)

    @property
    def newest(self) -> Sample | None:
        return self._items[-1] if self._items else None


@dataclass(frozen=True)
class StepOutcome:
    """Result of one recursion step."""

    step_index: int
    timestamp: float
    accepted: bool
    flagged: bool
    reason: str | None
    utility: UtilityReport
    posterior_before: int
    posterior_after: int
    wall_time: float
    residual_rms: np.ndarray | None
    theta_refreshed: bool
    prior_floor: bool


class RecursionState:
    """Mutable estimator state; exactly one writer (the step function)."""

    __slots__ = (
        "spec",
        "config",
        "noise",
        "horseshoe",
        "buffer",
        "s_blocks",
        "b_blocks",
        "step_count",
        "version",
        "samples_since_refresh",
        "pending",
        "init_flagged",
    )

    def __init__(self, spec, config, noise, horseshoe, buffer, s_blocks, b_blocks):
        self.spec = spec
        self.config = config
        self.noise = noise
        self.horseshoe = horseshoe
        self.buffer = buffer
        self.s_blocks = s_blocks
        self.b_blocks = b_blocks
        self.step_count = 0
        self.version = 0
        self.samples_since_refresh = 0
        self.pending: list = []
        self.init_flagged = False


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
    if len(warmup) < config.window:
        raise InsufficientWarmup(
            f"need at least {config.window} warmup samples, got {len(warmup)}"
        )
    if config.window + config.batch_in - config.forget <= spec.n_columns:
        raise ValueError(
            "window + batch_in - forget must exceed the number of dictionary columns"
        )
    if horseshoe is None:
        horseshoe = initial_horseshoe(spec, noise.n_outputs)
    retained = list(warmup[-config.window :])
    _check_increasing(retained)

    psi = build_matrix(spec, [s.state for s in retained])
    discount = config.forgetting_factor if config.condition_on_discounted else 1.0
    report = utility_from_differential(
        gram(psi) - discount * gram(psi[: config.forget])
    )
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

    if config.theta_mode == "adaptive":
        post = batch_fit_adaptive(spec, retained, noise, horseshoe)
    else:
        post = batch_fit(spec, retained, noise, horseshoe)

    buffer = WindowBuffer(config.window)
    buffer.extend(retained)
    state = RecursionState(
        spec, config, noise, post.horseshoe, buffer, post.s_blocks, post.b_blocks
    )
    state.init_flagged = init_flagged
    return state


def _blocks_pd(s_blocks) -> bool:
    for block in s_blocks:
        try:
            linalg.cho_factor(block, lower=True)
        except linalg.LinAlgError:
            return False
    return True


def step(state: RecursionState, new_samples: list) -> StepOutcome:
    """Ingest one batch: audit, apply (or not, per policy), refresh scales.

    Returns an outcome describing what happened; the emitted record for
    streaming consumers is built from it by step_record.
    """
    t0 = time.perf_counter()
    cfg = state.config
    if len(new_samples) != cfg.batch_in:
        raise ValueError(
            f"expected a batch of {cfg.batch_in} samples, got {len(new_samples)}"
        )
    buffer = state.buffer
    newest = buffer.newest
    batch = state.pending + list(new_samples)
    _check_increasing(batch, after=None if newest is None else newest.timestamp)
    if cfg.forget > 0:
        # sliding window: every sample that leaves the buffer is divided out,
        # and samples that would never enter it are not added
        batch = batch[-buffer.capacity :]
        overflow = len(buffer) + len(batch) - buffer.capacity
        old = buffer.oldest(min(len(buffer), max(cfg.forget, overflow)))
    else:
        old = []

    n_y = state.noise.n_outputs
    psi_new = build_matrix(state.spec, [s.state for s in batch])
    psi_old = build_matrix(state.spec, [s.state for s in old])
    gram_new = gram(psi_new)
    gram_old = gram(psi_old)
    discount = cfg.forgetting_factor if cfg.condition_on_discounted else 1.0
    report = utility_from_differential(gram_new - discount * gram_old)

    version_before = state.version
    timestamp = batch[-1].timestamp if batch else (newest.timestamp if newest else 0.0)

    flagged = False
    reason = None
    if report.classification != "informative":
        if cfg.policy == "reject":
            return _rejected(
                state, report, version_before, timestamp, t0,
                reason=f"update {report.classification}; rejected by policy",
                drop_pending=True,
            )
        if cfg.policy == "defer":
            state.pending = batch
            return _rejected(
                state, report, version_before, timestamp, t0,
                reason=f"update {report.classification}; deferred for aggregation",
                drop_pending=False,
            )
        flagged = True
        reason = f"update {report.classification}; applied under warn policy"

    xi = cfg.forgetting_factor
    update_diff = gram_new - gram_old
    prior_prec = state.horseshoe.prior_precision_blocks()
    precisions = state.noise.precisions
    y_new = np.asarray([s.observation for s in batch], dtype=float).reshape(
        len(batch), n_y
    )
    y_old = np.asarray([s.observation for s in old], dtype=float).reshape(len(old), n_y)
    cross = psi_new.T @ y_new - psi_old.T @ y_old

    new_s = np.empty_like(state.s_blocks)
    new_b = np.empty_like(state.b_blocks)
    prior_floor = xi < 1.0
    for i, prec in enumerate(precisions):
        new_s[i] = xi * state.s_blocks[i] + prec * update_diff
        if prior_floor:
            new_s[i] += np.diag((1.0 - xi) * prior_prec[i])
        new_s[i] = 0.5 * (new_s[i] + new_s[i].T)
        new_b[i] = xi * state.b_blocks[i] + prec * cross[:, i]

    if not _blocks_pd(new_s):
        # hard invariant: the posterior must stay proper, even under warn
        return _rejected(
            state, report, version_before, timestamp, t0,
            reason="update would make the information matrix indefinite; rolled back",
            drop_pending=True,
        )

    state.s_blocks = new_s
    state.b_blocks = new_b
    state.pending = []
    buffer.pop_oldest(len(old))
    buffer.extend(batch)
    state.version += 1
    state.step_count += 1
    state.samples_since_refresh += len(batch)

    theta_refreshed = False
    cadence = cfg.refresh_every if cfg.refresh_every is not None else cfg.window
    if cfg.theta_mode == "adaptive" and state.samples_since_refresh >= cadence:
        _refresh_prior(state)
        theta_refreshed = True
        state.samples_since_refresh = 0

    residual = _residual_rms(state, psi_new, y_new)
    return StepOutcome(
        step_index=state.step_count,
        timestamp=timestamp,
        accepted=True,
        flagged=flagged or (state.init_flagged and state.step_count == 1),
        reason=reason,
        utility=report,
        posterior_before=version_before,
        posterior_after=state.version,
        wall_time=time.perf_counter() - t0,
        residual_rms=residual,
        theta_refreshed=theta_refreshed,
        prior_floor=prior_floor,
    )


def _rejected(state, report, version_before, timestamp, t0, reason, drop_pending):
    if drop_pending:
        state.pending = []
    state.step_count += 1
    psi = np.zeros((0, state.spec.n_columns))
    y = np.zeros((0, state.noise.n_outputs))
    return StepOutcome(
        step_index=state.step_count,
        timestamp=timestamp,
        accepted=False,
        flagged=True,
        reason=reason,
        utility=report,
        posterior_before=version_before,
        posterior_after=version_before,
        wall_time=time.perf_counter() - t0,
        residual_rms=_residual_rms(state, psi, y),
        theta_refreshed=False,
        prior_floor=False,
    )


def _refresh_prior(state: RecursionState) -> None:
    """Re-estimate the prior scales and apply the information delta."""
    post = snapshot(state)
    refreshed = refresh_horseshoe(post)
    delta = refreshed.prior_precision_blocks() - state.horseshoe.prior_precision_blocks()
    for i in range(state.noise.n_outputs):
        state.s_blocks[i] += np.diag(delta[i])
    state.horseshoe = refreshed


def _residual_rms(state, psi_new, y_new) -> float | None:
    if psi_new.shape[0] == 0:
        return None
    post = snapshot(state)
    resid = y_new - psi_new @ post.mean_blocks().T
    return float(np.sqrt(np.mean(resid**2)))


def snapshot(state: RecursionState) -> PosteriorState:
    """Immutable copy of the current posterior."""
    return PosteriorState(
        state.spec,
        state.noise,
        state.horseshoe,
        state.s_blocks,
        state.b_blocks,
        sample_count=state.buffer.total_ingested,
    )


def step_record(state: RecursionState, outcome: StepOutcome) -> dict:
    """JSON-serializable record emitted once per step."""
    post = snapshot(state)
    residual = None if outcome.residual_rms is None else float(outcome.residual_rms)
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
        "residual_rms": residual,
        "theta_refreshed": bool(outcome.theta_refreshed),
        "prior_floor": bool(outcome.prior_floor),
    }
