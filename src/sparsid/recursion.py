"""Online windowed estimator: recursive information updates with forgetting.

The state is what all outputs share: the window Gram G = Psi.T @ Psi and
cross-moment C = Psi.T @ Y. Each step discounts both by the forgetting
factor and adds the new batch; when the window slides it also divides out
as many of the oldest buffered samples as enter, so the window stays full.
The prior is not part of that recursion: every posterior is assembled from
(G, C) and the prior precision in force, so discounting never erodes the
prior (the posterior never falls below it) and a prior refresh only swaps
it. The state keeps the posterior that init or the last accepted step
assembled, factored at construction, so a step's residual, refresh and
record read one posterior and its one factorization. The well-posedness
of every slide is audited (audit_run, the one place that forms Gram(new) -
Gram(old) from the window's rows) before it is applied; what happens on a
violation is a policy choice. Moments that overflow are an input error
(NonFiniteInput), never a posterior.

Operating guidance: slide the window (forget == batch_in) with
forgetting_factor == 1, or grow it (forget == 0) with forgetting_factor < 1.
Sliding a discounted window drains its information toward the prior floor
on stationary streams: the forgotten block is divided out at full strength
while its stored copy has already been discounted. Each posterior a step
leaves is positive definite: an update whose posterior cannot be built
(NotPositiveDefinite) is rolled back, and a prior refresh whose posterior
cannot be built is refused (the previous prior stays, and the step is
flagged with theta_refreshed false).

Rows are arrays throughout: init and step take (t, x, y) arrays, or a list
of Samples that dictionary.stack_rows stacks where it enters. The window
code (WindowBuffer, audit_run) needs no posterior.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import DictionarySpec, build_matrix, stack_rows
from .errors import ConditionViolated, InsufficientWarmup, NonFiniteInput, NotPositiveDefinite
from .monitor import UtilityReport, gram, utility_from_differential
from .posterior import MAX_OUTER, HorseshoeState, NoiseModel, PosteriorState, fit_moments
from .posterior import initial_horseshoe, posterior_from_moments, refresh_horseshoe

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
    forget: batch_in or 0. batch_in slides the window: each accepted slide
        divides out as many of the oldest samples as enter (min(batch,
        window) of a batch, a merged deferred one too), so the posterior
        holds exactly the buffered samples. 0 grows it: nothing is divided
        out, and forgetting_factor < 1 discounts the history.
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
        if self.forget not in (0, self.batch_in):
            raise ValueError(
                f"forget must be batch_in ({self.batch_in}), for a sliding window, "
                f"or 0, for a growing one; got {self.forget}"
            )
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
        dictionary columns: window + batch_in - forget, the window when it
        slides and the window plus a batch when it grows, must exceed it."""
        if self.window + self.batch_in - self.forget <= n_columns:
            raise ValueError(
                f"window + batch_in - forget must exceed the {n_columns} "
                "dictionary columns"
            )


class WindowBuffer:
    """Fixed-capacity FIFO window, oldest first: the timestamps t, states x,
    observations y and dictionary rows of the buffered samples, as four
    parallel arrays.

    Each array has room for twice the capacity, the buffered entries
    contiguous from `_lo`; an extend that would run past the end first moves
    them to the front, all four together, so the oldest entries are always
    one slice of each. The rows keep their own C-contiguous array, so the
    gram of a slice of them has the bytes of a fresh block. The first
    extend fixes the widths. An extend drops the oldest entries that no
    longer fit.
    """

    __slots__ = ("capacity", "_arrays", "_lo", "_len")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._arrays = None  # t, x, y and the rows
        self._lo = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def extend(self, t, x, y, rows) -> None:
        """Push samples: timestamps t (n,), states x (n, n_x), observations
        y (n, n_y) and their dictionary rows (n, n_p)."""
        new = (t, x, y, rows)
        n = len(t)
        if set(map(len, new)) != {n}:
            raise ValueError(f"extend needs n of each, got {list(map(len, new))}")
        if self._arrays is None:
            self._arrays = [np.empty((2 * self.capacity, *a.shape[1:])) for a in new]
        enter = min(n, self.capacity)
        live = min(self._len, self.capacity - enter)  # entries that stay
        lo = self._lo + self._len - live
        if lo + live + enter > 2 * self.capacity:
            for a in self._arrays:
                a[:live] = a[lo : lo + live]
            lo = 0
        for a, v in zip(self._arrays, new):
            a[lo + live : lo + live + enter] = v[n - enter :]
        self._lo, self._len = lo, live + enter

    def oldest(self, k: int) -> list:
        """Views of the k oldest entries, [t, x, y, rows], valid until the
        next extend."""
        if k > self._len:
            raise ValueError(f"buffer holds {self._len} samples, asked for {k}")
        return [a[self._lo : self._lo + k] for a in self._arrays]

    @property
    def last_t(self) -> float:
        """The newest timestamp; -inf while the buffer is empty."""
        return float(self._arrays[0][self._lo + self._len - 1]) if self._len else -math.inf

    def items(self) -> tuple:
        """Copies of the buffered (t, x, y), oldest first: a block of rows,
        as batch_fit takes it; no rows while the buffer is empty. The states
        are stored for this only."""
        if self._arrays is None:
            return np.empty(0), np.empty((0, 0)), np.empty((0, 0))
        return tuple(a.copy() for a in self.oldest(self._len)[:3])


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


class RecursionState:
    """Mutable estimator state; exactly one writer (the step function).

    gram (n_p x n_p) and cross (n_p x n_y) are the discounted window
    moments Psi.T @ Psi and Psi.T @ Y; posterior is the one they give at
    the prior in force, as init or the last accepted step assembled it
    (a rejected or rolled-back step and a refused refresh leave it as it
    was). horseshoe, s_blocks and b_blocks are read-only views of it.
    pending is the batch a deferring step parked, as (t, x, y) arrays, or
    None.
    """

    __slots__ = (
        "spec",
        "config",
        "noise",
        "posterior",
        "buffer",
        "gram",
        "cross",
        "step_count",
        "samples_since_refresh",
        "pending",
        "init_flagged",
    )

    def __init__(self, spec, config, noise, posterior, buffer, window_gram, cross):
        self.spec = spec
        self.config = config
        self.noise = noise
        self.posterior = posterior
        self.buffer = buffer
        self.gram = window_gram
        self.cross = cross
        self.step_count = 0
        self.samples_since_refresh = 0
        self.pending = None
        self.init_flagged = False

    @property
    def horseshoe(self) -> HorseshoeState:
        return self.posterior.horseshoe

    @property
    def s_blocks(self) -> np.ndarray:
        return self.posterior.s_blocks

    @property
    def b_blocks(self) -> np.ndarray:
        return self.posterior.b_blocks


def _check_order(t, after: float) -> None:
    """Raise unless the timestamps t increase strictly, the first one after
    `after`."""
    if t[0] > after and (t[1:] > t[:-1]).all():
        return
    i = np.flatnonzero(np.diff(t, prepend=after) <= 0.0)[0]
    prev = t[i - 1] if i else after
    raise ValueError(f"timestamps must be strictly increasing, got {t[i]} after {prev}")


def init(
    spec: DictionarySpec,
    config: RecursionConfig,
    warmup,
    noise: NoiseModel,
    horseshoe: HorseshoeState | None = None,
) -> RecursionState:
    """Start the estimator from a warmup window.

    warmup is a block of rows: (t, x, y) arrays of the timestamps (n,),
    states (n, n_x) and observations (n, n_y), or a list of n Samples.
    Requires at least `window` warmup rows (the last `window` are used, and
    their timestamps must increase strictly), window geometry large enough
    to identify every column, and a well-posed warmup window: the rows that
    the first slide keeps (all of them when the window grows) informative,
    else warn flags the first step. The initial posterior is the exact
    batch fit of the retained window; not positive definite, it raises
    ConditionViolated under every policy.
    """
    t, x, y = stack_rows(warmup, noise.n_outputs)
    if len(t) < config.window:
        raise InsufficientWarmup(
            f"need at least {config.window} warmup samples, got {len(t)}"
        )
    config.check_columns(spec.n_columns)
    if horseshoe is None:
        horseshoe = initial_horseshoe(spec, noise.n_outputs)
    t, x, y = t[-config.window :], x[-config.window :], y[-config.window :]
    _check_order(t, -math.inf)

    rows = build_matrix(spec, x)
    window_gram, cross = gram(rows), rows.T @ y
    (report,) = utility_from_differential((window_gram - gram(rows[: config.forget]))[None])
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

    max_outer = MAX_OUTER if config.theta_mode == "adaptive" else 0
    try:
        post = fit_moments(spec, noise, horseshoe, window_gram, cross, max_outer)
    except NotPositiveDefinite as exc:  # no policy can step from it
        raise ConditionViolated("warmup posterior is not positive definite") from exc

    buffer = WindowBuffer(config.window)
    buffer.extend(t, x, y, rows)
    state = RecursionState(spec, config, noise, post, buffer, window_gram, cross)
    state.init_flagged = init_flagged
    return state


def audit_run(
    spec: DictionarySpec, buffer: WindowBuffer, t, x, y, forget: int
) -> tuple:
    """Audit the window's slide for each of k batches of b samples in turn
    without applying any: the buffer is left as it is.

    The batches come as stacks: timestamps t (k x b), states x (k x b x
    n_x) and observations y (k x b x n_y). The buffer must be full. A
    sliding window (forget > 0): e = min(b, capacity) samples of a batch
    enter (its last e) and the e oldest leave. A growing one (forget == 0):
    all b enter, none is divided out, and the b oldest are pushed out
    unaudited. Either way a full window stays full, and applying the slides
    is one `buffer.extend` of the entering samples with their psi_new rows.

    Batch i's old rows (psi_old, or pushed when forget == 0) are the e rows
    from position i*e of [buffer rows; rows of the entering samples], so
    every block is a view of that sequence; while k*e fits in the window
    they are views of the buffer's rows, valid until its next extend. One
    build_matrix call, one stacked gram and one stacked eigvalsh serve all
    k batches.

    Returns (the entering (t, x, y), views of the stacks (k x e ...);
    psi_new, psi_old and the pushed rows as k x e x n_p stacks, psi_old
    empty (k x 0 x n_p) when forget == 0 and pushed empty when forget > 0;
    the k differentials Gram(psi_new) - Gram(psi_old) as a k x n_p x n_p
    stack; their UtilityReports)."""
    capacity = buffer.capacity
    if len(buffer) != capacity:
        raise ValueError(f"buffer holds {len(buffer)} samples, not its capacity {capacity}")
    (k, b), n_p = t.shape, spec.n_columns
    e = min(b, capacity) if forget else b
    t, x, y = t[:, b - e :], x[:, b - e :], y[:, b - e :]
    rows = build_matrix(spec, x.reshape(k * e, x.shape[-1]))
    # the k*e oldest rows of [buffer rows; rows], e per batch
    lead = buffer.oldest(min(capacity, k * e))[3]
    if k * e > capacity:
        lead = np.concatenate((lead, rows[: k * e - capacity]))
    psi_new, lead = rows.reshape(k, e, n_p), lead.reshape(k, e, n_p)
    psi_old, pushed = (lead, lead[:, :0]) if forget else (lead[:, :0], lead)
    differentials = gram(psi_new) - gram(psi_old)
    return (
        (t, x, y), psi_new, psi_old, pushed, differentials,
        utility_from_differential(differentials),
    )


def step(state: RecursionState, new_rows) -> StepOutcome:
    """Ingest one batch of batch_in rows, given as init takes its warmup:
    audit its slide (audit_run), apply it with one buffer extend or not
    (per policy and the PD guard), refresh scales. A batch parked by a
    deferring step is merged in front of it; the timestamps of the merged
    batch must increase strictly, after the newest buffered one.

    Returns an outcome describing what happened; the emitted record for
    streaming consumers is built from it by step_record. Moments that
    overflow raise NonFiniteInput.
    """
    cfg = state.config
    batch = stack_rows(new_rows, state.noise.n_outputs)
    if len(batch[0]) != cfg.batch_in:
        raise ValueError(
            f"expected a batch of {cfg.batch_in} samples, got {len(batch[0])}"
        )
    if state.pending is not None:
        batch = tuple(map(np.concatenate, zip(state.pending, batch)))
    buffer = state.buffer
    t, x, y = batch
    _check_order(t, buffer.last_t)
    timestamp = float(t[-1])
    (t, x, y), psi_new, psi_old, _, differentials, reports = audit_run(
        state.spec, buffer, t[None], x[None], y[None], cfg.forget
    )
    t, x, y, psi_new, psi_old = t[0], x[0], y[0], psi_new[0], psi_old[0]
    differential, report = differentials[0], reports[0]

    flagged = False
    reason = None
    if report.classification != "informative":
        if cfg.policy == "reject":
            return _rejected(
                state, report, timestamp,
                reason=f"update {report.classification}; rejected by policy",
            )
        if cfg.policy == "defer":
            if len(batch[0]) >= buffer.capacity:
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

    y_old = buffer.oldest(len(psi_old))[2]
    xi = cfg.forgetting_factor
    new_gram = xi * state.gram + differential
    new_cross = xi * state.cross + (psi_new.T @ y - psi_old.T @ y_old)
    try:
        post = posterior_from_moments(
            state.spec, state.noise, state.horseshoe, new_gram, new_cross
        )
    except NonFiniteInput as exc:  # name the batch that overflows them
        raise NonFiniteInput(f"{exc} at t={timestamp}") from exc
    except NotPositiveDefinite:
        # hard invariant: the posterior must stay proper, even under warn
        return _rejected(
            state, report, timestamp,
            reason="update would make the information matrix indefinite; rolled back",
        )

    state.gram, state.cross, state.posterior = new_gram, new_cross, post
    state.pending = None
    buffer.extend(t, x, y, psi_new)
    state.step_count += 1
    state.samples_since_refresh += len(t)

    theta_refreshed = False
    cadence = cfg.refresh_every if cfg.refresh_every is not None else cfg.window
    if cfg.theta_mode == "adaptive" and state.samples_since_refresh >= cadence:
        state.samples_since_refresh = 0
        horseshoe = refresh_horseshoe(post)
        try:
            state.posterior = posterior_from_moments(
                state.spec, state.noise, horseshoe, new_gram, new_cross
            )
            theta_refreshed = True
        except NotPositiveDefinite:
            # the same invariant: keep the prior that leaves a proper posterior
            flagged = True
            refused = "prior refresh would make the information matrix indefinite; refused"
            reason = refused if reason is None else f"{reason}; {refused}"

    resid = y - psi_new @ state.posterior.mean_blocks().T
    return StepOutcome(
        step_index=state.step_count,
        timestamp=timestamp,
        accepted=True,
        flagged=flagged or (state.init_flagged and state.step_count == 1),
        reason=reason,
        utility=report,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        theta_refreshed=theta_refreshed,
    )


def _rejected(state, report, timestamp, reason):
    """Outcome of a step that leaves the posterior as it was and drops the
    batch; defer parks it in state.pending afterwards."""
    state.pending = None
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
    )


def snapshot(state: RecursionState) -> PosteriorState:
    """The current posterior. It is immutable, and later steps replace it
    without changing it, so it is safe to keep."""
    return state.posterior


def step_record(state: RecursionState, outcome: StepOutcome) -> dict:
    """JSON-serializable record emitted once per step."""
    post = state.posterior
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
        # the prior floors an accepted posterior whose data information is discounted
        "prior_floor": bool(outcome.accepted and state.config.forgetting_factor < 1.0),
    }
