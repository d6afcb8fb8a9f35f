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

step_read steps a whole read of k batches, and step is its one-batch read,
so the update, the PD guard, the refresh and the rollback are written once.
A read is stepped in runs: one audit_run of the run's slides (which also
finds the leaving observations), the window moments of all its steps from
one running sum (monitor.accumulate), their posteriors factored by one
stacked np.linalg.cholesky call (posterior.posteriors_from_moments), the
means, stds and residuals from stacked solves, and one buffer extend of
the accepted batches' stacks. Every operation is the one a one-batch step
makes, on each matrix of a stack, so the outcomes (all built by _outcome)
have the bytes of one step per batch. A run is cut after
a step whose prior refresh falls due (its refreshed posterior is built
alone, as a one-batch step builds it), at the first step policy refuses,
at the first rolled back, and at the first whose moments overflow; the
rest of the read runs from the state after the cut.

Rows are arrays throughout: init and step take (t, x, y) arrays, or a list
of Samples that dictionary.stack_rows stacks where it enters, and
step_read takes k x batch_in stacks of them. The window code
(WindowBuffer, audit_run) needs no posterior.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import DictionarySpec, build_matrix, stack_rows
from .errors import ConditionViolated, InsufficientWarmup, NonFiniteInput, NotPositiveDefinite
from .monitor import UtilityReport, accumulate, gram, utility_from_differential
from .posterior import MAX_OUTER, HorseshoeState, NoiseModel, PosteriorState, fit_moments
from .posterior import initial_horseshoe, posterior_from_moments, posteriors_from_moments
from .posterior import refresh_horseshoe

__all__ = [
    "RecursionConfig",
    "WindowBuffer",
    "audit_run",
    "StepOutcome",
    "RecursionState",
    "init",
    "step",
    "step_read",
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
        y (n, n_y) and their dictionary rows (n, n_p); or k x e stacks of
        them (t k x e, x k x e x n_x, ...), the k blocks of e in turn, which
        is one block of k * e."""
        new = [t, x, y, rows]
        if np.ndim(t) == 2:
            new = [a.reshape(t.size, *a.shape[2:]) for a in new]
        n = len(new[0])
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
    """Result of one recursion step, with the coefficient means and stds
    (n_y x n_p) of the posterior the step leaves."""

    step_index: int
    timestamp: float
    accepted: bool
    flagged: bool
    reason: str | None
    utility: UtilityReport
    residual_rms: float | None
    theta_refreshed: bool
    coef_mean: np.ndarray
    coef_std: np.ndarray


class RecursionState:
    """Mutable estimator state; exactly one writer (the step function).

    gram (n_p x n_p) and cross (n_p x n_y) are the discounted window
    moments Psi.T @ Psi and Psi.T @ Y; posterior is the one they give at
    the prior in force, as init or the last accepted step assembled it
    (a rejected or rolled-back step and a refused refresh leave it as it
    was); its blocks are read as state.posterior.s_blocks and b_blocks,
    and its prior as the read-only view horseshoe.
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
    psi_new, psi_old and the pushed rows as k x e x n_p stacks; y_old, the
    observations of the leaving samples, as a k x e x n_y stack; psi_old
    and y_old empty (k x 0 ...) when forget == 0 and pushed empty when
    forget > 0; the k differentials Gram(psi_new) - Gram(psi_old) as a k x
    n_p x n_p stack; their UtilityReports). y_old is found as psi_old is:
    views of the buffer's observations while k*e fits in the window."""
    capacity = buffer.capacity
    if len(buffer) != capacity:
        raise ValueError(f"buffer holds {len(buffer)} samples, not its capacity {capacity}")
    (k, b), n_p, n_y = t.shape, spec.n_columns, y.shape[-1]
    e = min(b, capacity) if forget else b
    t, x, y = t[:, b - e :], x[:, b - e :], y[:, b - e :]
    rows = build_matrix(spec, x.reshape(k * e, x.shape[-1]))
    # the k*e oldest rows of [buffer rows; rows], e per batch
    lead = _oldest(buffer, 3, rows, k * e).reshape(k, e, n_p)
    psi_new = rows.reshape(k, e, n_p)
    if forget:
        psi_old, pushed = lead, lead[:, :0]
        y_old = _oldest(buffer, 2, y.reshape(k * e, n_y), k * e).reshape(k, e, n_y)
    else:
        psi_old, pushed, y_old = lead[:, :0], lead, y[:, :0]
    differentials = gram(psi_new) - gram(psi_old)
    return (
        (t, x, y), psi_new, psi_old, y_old, pushed, differentials,
        utility_from_differential(differentials),
    )


def _oldest(buffer: WindowBuffer, column: int, entering: np.ndarray, n: int) -> np.ndarray:
    """The n oldest entries of a buffer column (2 the observations, 3 the
    rows) followed by the entering ones: views of the buffer while n fits
    in it."""
    lead = buffer.oldest(min(buffer.capacity, n))[column]
    return np.concatenate((lead, entering[: n - buffer.capacity])) if n > buffer.capacity else lead


def step(state: RecursionState, new_rows) -> StepOutcome:
    """Ingest one batch of batch_in rows, given as init takes its warmup:
    the one-batch read of step_read. Audit its slide (audit_run), apply it
    with one buffer extend or not (per policy and the PD guard), refresh
    scales. A batch parked by a deferring step is merged in front of it;
    the timestamps of the merged batch must increase strictly, after the
    newest buffered one.

    Returns an outcome describing what happened; the emitted record for
    streaming consumers is built from it by step_record. Moments that
    overflow raise NonFiniteInput.
    """
    t, x, y = stack_rows(new_rows, state.noise.n_outputs)
    if len(t) != state.config.batch_in:
        raise ValueError(
            f"expected a batch of {state.config.batch_in} samples, got {len(t)}"
        )
    outcomes, error = _step_read(state, t[None], x[None], y[None])
    if error is not None:
        raise error
    return outcomes[0]


def step_read(state: RecursionState, t, x, y) -> tuple:
    """Step the k batches of a read, given as stacks: timestamps t (k x
    batch_in), states x (k x batch_in x n_x) and observations y (k x
    batch_in x n_y), checked for finite values. The timestamps of the
    whole read must increase strictly, after the newest buffered one (and
    a parked batch's); that is checked before any batch is stepped, so a
    read that fails it raises ValueError and steps nothing.

    For a read that passes that check, the outcomes, the state each step
    leaves and every byte of them are those of k step calls. A read is
    stepped a run at a time: one audit_run, one accumulation of the
    moments and one stacked factorization of the posteriors
    (posteriors_from_moments) per run, and one buffer extend for its
    accepted batches. A run ends after a batch whose prior refresh falls
    due, and at the first batch that policy refuses, whose posterior is
    not positive definite (rolled back), or whose moments overflow; a
    batch merged with a parked one is a run of its own.

    Returns (the outcomes of the batches stepped, in order; None, or the
    NonFiniteInput of a batch whose moments overflow, which ends the read
    after the batches before it).
    """
    cfg = state.config
    k = len(t)
    if not k:
        return [], None
    if np.shape(t)[1:] != (cfg.batch_in,):
        raise ValueError(f"expected batches of {cfg.batch_in} samples, got {np.shape(t)}")
    n = k * cfg.batch_in
    t, x, y = stack_rows(
        (np.reshape(t, n), np.reshape(x, (n, -1)), np.reshape(y, (n, -1))),
        state.noise.n_outputs,
    )
    return _step_read(state, *(a.reshape(k, cfg.batch_in, *a.shape[1:]) for a in (t, x, y)))


def _step_read(state: RecursionState, t, x, y) -> tuple:
    """step_read of checked C-contiguous stacks."""
    times = t.ravel() if state.pending is None else np.concatenate((state.pending[0], t.ravel()))
    _check_order(times, state.buffer.last_t)
    # a refused or rolled-back batch leaves the window as it was, so the
    # audits of the batches after it are redone: a run audits one batch
    # after one, and twice as many as the last after one that is accepted;
    # under warn, which refuses none, the first run audits the whole read
    outcomes, i, size = [], 0, len(t) if state.config.policy == "warn" else 1
    try:
        while i < len(t):
            i += _run(state, t[i : i + size], x[i : i + size], y[i : i + size], outcomes)
            size = 2 * size if outcomes[-1].accepted else 1
    except NonFiniteInput as exc:
        return outcomes, exc
    return outcomes, None


def _run(state: RecursionState, t, x, y, outcomes: list) -> int:
    """Step the leading batches of k stacked ones from one audit_run: all k,
    or up to and including the first whose prior refresh falls due, that
    policy refuses or whose update is rolled back. Appends their outcomes
    and returns how many batches it stepped. A parked batch is merged into
    the first batch, which is then stepped alone. Raises NonFiniteInput for
    a batch whose moments overflow, after appending the outcomes of the
    batches before it."""
    cfg, buffer = state.config, state.buffer
    if state.pending is not None:
        t, x, y = (np.concatenate((p, a[0]))[None] for p, a in zip(state.pending, (t, x, y)))
    try:
        entering, psi_new, psi_old, y_old, _, differentials, reports = audit_run(
            state.spec, buffer, t, x, y, cfg.forget
        )
    except NonFiniteInput:
        if len(t) == 1:
            raise
        # the error path: step one batch at a time until the one that overflows
        return _run(state, t[:1], x[:1], y[:1], outcomes)
    k, timestamps = len(t), t[:, -1].tolist()

    # under reject and defer, the batches before the first one refused
    n = k
    if cfg.policy != "warn":
        n = next((j for j, r in enumerate(reports) if r.classification != "informative"), k)
    t_in, x_in, y_in = entering
    if n < k:
        t_in, x_in, y_in, psi_new, psi_old, y_old, differentials = [
            a[:n] for a in (t_in, x_in, y_in, psi_new, psi_old, y_old, differentials)
        ]
    e = t_in.shape[1]
    xi = cfg.forgetting_factor
    grams = accumulate(state.gram, differentials, xi)
    crosses = accumulate(
        state.cross, psi_new.swapaxes(1, 2) @ y_in - psi_old.swapaxes(1, 2) @ y_old, xi
    )

    # the posteriors of the batches up to the first whose prior refresh
    # falls due, every `cadence` entering samples: the ceil((cadence -
    # since) / e)-th. The run ends with it
    adaptive = cfg.theta_mode == "adaptive"
    since = state.samples_since_refresh
    cadence = cfg.window if cfg.refresh_every is None else cfg.refresh_every
    stop = min(n, -((since - cadence) // e)) if adaptive else n
    posts, error = [], None
    if stop:
        posts, error = posteriors_from_moments(
            state.spec, state.noise, state.horseshoe, grams[:stop], crosses[:stop]
        )
    since += len(posts) * e
    refreshed = refused = False  # the last batch's refresh
    if error is None and adaptive and since >= cadence:
        since = 0
        try:
            posts[-1] = posterior_from_moments(
                state.spec, state.noise, refresh_horseshoe(posts[-1]),
                grams[stop - 1], crosses[stop - 1],
            )
            refreshed = True
        except NotPositiveDefinite:
            # the same invariant: keep the prior that leaves a proper posterior
            refused = True

    p = len(posts)  # the batches applied
    if p:
        state.gram, state.cross, state.posterior = grams[p - 1], crosses[p - 1], posts[-1]
        state.pending = None
        state.samples_since_refresh = since
        buffer.extend(t_in[:p], x_in[:p], y_in[:p], psi_new[:p])
        means = np.array([post.mean_blocks() for post in posts])
        resid = y_in[:p] - psi_new[:p] @ means.swapaxes(1, 2)
        rms = np.sqrt(np.mean((resid**2).reshape(p, -1), axis=1)).tolist()
        for j, post in enumerate(posts):
            report, reason = reports[j], None
            if report.classification != "informative":
                reason = f"update {report.classification}; applied under warn policy"
            if j == p - 1 and refused:
                note = "prior refresh would make the information matrix indefinite; refused"
                reason = note if reason is None else f"{reason}; {note}"
            outcomes.append(_outcome(
                state, report, timestamps[j], reason, post, rms[j], j == p - 1 and refreshed
            ))

    # the batch that ends the run unapplied: p, rolled back, or n, refused
    pending = None
    if error is not None:  # batch p's posterior cannot be built
        if isinstance(error, NonFiniteInput):  # name the batch that overflows them
            raise NonFiniteInput(f"{error} at t={timestamps[p]}") from error
        # hard invariant: the posterior must stay proper, even under warn
        n, reason = p, "update would make the information matrix indefinite; rolled back"
    elif stop < n or n == k:  # cut by a refresh, or stepped whole
        return stop
    elif cfg.policy == "reject":
        reason = f"update {reports[n].classification}; rejected by policy"
    elif len(t[n]) >= buffer.capacity:
        # merging more cannot help: the batch already replaces a whole
        # window, so retrying it would stall the estimator
        reason = (
            f"update {reports[n].classification}; "
            "deferred batch reached the window length, dropped"
        )
    else:
        reason = f"update {reports[n].classification}; deferred for aggregation"
        pending = (t[n], x[n], y[n])
    outcomes.append(_outcome(state, reports[n], timestamps[n], reason))
    state.pending = pending
    return n + 1


def _outcome(state, report, timestamp, reason, post=None, rms=None, refreshed=False):
    """The outcome of the state's next step, which it counts: accepted when
    the step leaves the posterior post (with the residual RMS rms, and
    refreshed its prior or not), else refused (rejected, deferred, dropped
    or rolled back), leaving the state's posterior as it was."""
    state.step_count += 1
    accepted = post is not None
    if not accepted:
        post = state.posterior
    return StepOutcome(
        step_index=state.step_count,
        timestamp=timestamp,
        accepted=accepted,
        flagged=reason is not None or (state.init_flagged and state.step_count == 1),
        reason=reason,
        utility=report,
        residual_rms=rms,
        theta_refreshed=refreshed,
        coef_mean=post.mean_blocks(),
        coef_std=post.std_blocks(),
    )


def snapshot(state: RecursionState) -> PosteriorState:
    """The current posterior. It is immutable, and later steps replace it
    without changing it, so it is safe to keep."""
    return state.posterior


def step_record(state: RecursionState, outcome: StepOutcome) -> dict:
    """JSON-serializable record emitted once per step."""
    return {
        "step": outcome.step_index,
        "t": float(outcome.timestamp),
        "accepted": bool(outcome.accepted),
        "flagged": bool(outcome.flagged),
        "reason": outcome.reason,
        "classification": outcome.utility.classification,
        "kappa_min": float(outcome.utility.kappas[0]),
        "kappa_max": float(outcome.utility.kappas[-1]),
        "coef_mean": outcome.coef_mean.tolist(),
        "coef_std": outcome.coef_std.tolist(),
        "residual_rms": outcome.residual_rms,
        "theta_refreshed": bool(outcome.theta_refreshed),
        # the prior floors an accepted posterior whose data information is discounted
        "prior_floor": bool(outcome.accepted and state.config.forgetting_factor < 1.0),
    }
