"""Multi-output Bayesian regression posterior over dictionary coefficients.

With a diagonal output-noise covariance and an elementwise prior, the joint
information matrix over all coefficients is block diagonal per output:
block i equals Gram(window) / sigma_i^2 plus the prior precision of that
output's coefficients. Everything here exploits that structure, so the
cost is n_y solves of size n_p instead of one solve of size n_y * n_p.
A posterior factors its n_y blocks at construction, with one numpy
Cholesky call over the stack, and its mean, marginal stds and covariance
all come from that factor, so every posterior is proper and has moments;
posteriors_from_moments factors the blocks of k windows with one call, by
the same routine. numpy is the only dependency.

Coefficients are ordered output-major: the flat vector stacks output 0's
n_p coefficients first, then output 1's, and so on (the column-major
vectorization of the n_p x n_y coefficient matrix).
"""

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import DictionarySpec, build_matrix, stack_rows
from .errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite
from .monitor import gram

__all__ = [
    "NoiseModel",
    "HorseshoeState",
    "PosteriorState",
    "initial_horseshoe",
    "batch_fit",
    "fit_moments",
    "posterior_from_moments",
    "posteriors_from_moments",
    "refresh_horseshoe",
]

SCALE_FLOOR = 1e-6
SCALE_CEIL = 1e6
MAX_OUTER = 20  # prior refreshes of an adaptive batch fit, at most


@dataclass(frozen=True)
class NoiseModel:
    """Known diagonal observation-noise covariance, one variance per output."""

    output_variances: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.output_variances, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise DimensionMismatch("output_variances must be a nonempty vector")
        if not np.isfinite(v).all() or (v <= 0.0).any():
            raise ValueError("output variances must be finite and positive")
        object.__setattr__(self, "output_variances", v.copy())

    @property
    def n_outputs(self) -> int:
        return self.output_variances.size


@dataclass(frozen=True)
class HorseshoeState:
    """Sparsity-inducing prior scales: one local scale per coefficient and a
    shared global scale. The implied prior on coefficient (term i, output j)
    is a zero-mean Gaussian with variance local[i, j]^2 * global^2, and
    refresh_horseshoe moves every scale. Each scale must be finite and
    positive, and so must each float that the prior is made of: local^2,
    global^2 and the precision 1 / (local^2 * global^2).
    """

    local_scales: np.ndarray
    global_scale: float

    def __post_init__(self):
        lam = np.asarray(self.local_scales, dtype=float)
        if lam.ndim != 2:
            raise DimensionMismatch("local_scales must be (n_terms, n_outputs)")
        if not np.isfinite(lam).all() or (lam <= 0.0).any():
            raise ValueError("local scales must be finite and positive")
        if not (np.isfinite(self.global_scale) and self.global_scale > 0.0):
            raise ValueError("global scale must be finite and positive")
        with np.errstate(all="ignore"):  # an overflow is what this looks for
            lam2, tau2 = lam**2, np.float64(self.global_scale) ** 2
            floats = (lam2, tau2, 1.0 / (lam2 * tau2))
        if not all(np.isfinite(f).all() and (f > 0.0).all() for f in floats):
            raise ValueError(
                "the prior's local^2, global^2 and precision 1 / (local^2 * global^2) "
                "must be finite and positive"
            )
        object.__setattr__(self, "local_scales", lam.copy())
        precision = (1.0 / (self.local_scales**2 * self.global_scale**2)).T
        precision.flags.writeable = False
        object.__setattr__(self, "_precision", precision)  # every posterior reads it

    def prior_precision_blocks(self) -> np.ndarray:
        """(n_outputs, n_terms) array of 1 / (local^2 * global^2), read-only."""
        return self._precision


def initial_horseshoe(
    spec: DictionarySpec, n_outputs: int, scale: float = 1.0, tau: float = 1.0
) -> HorseshoeState:
    """Uniform starting scales: every local scale `scale`, global scale `tau`."""
    lam = np.full((spec.n_columns, n_outputs), float(scale))
    return HorseshoeState(local_scales=lam, global_scale=float(tau))


class PosteriorState:
    """Gaussian coefficient posterior in information form, proper by
    construction.

    Held as per-output blocks: s_blocks[i] is output i's information matrix
    and b_blocks[i] its information vector; the joint information matrix is
    their block diagonal. Blocks that are not finite raise NonFiniteInput.
    The stack is factored at construction, by one np.linalg.cholesky call
    (S_i = L_i L_i^T), which raises NotPositiveDefinite when a block is not
    positive definite; the mean and the marginal stds are computed there
    too, and the covariance on request, all from the inverse factors
    L_i^-1. Instances are immutable: every array they hold is read-only.
    """

    __slots__ = ("spec", "noise", "horseshoe", "s_blocks", "b_blocks", "_inv", "_mean", "_std")

    def __init__(
        self,
        spec: DictionarySpec,
        noise: NoiseModel,
        horseshoe: HorseshoeState,
        s_blocks: np.ndarray,
        b_blocks: np.ndarray,
    ):
        n_y = noise.n_outputs
        n_p = spec.n_columns
        s = np.array(s_blocks, dtype=float, order="C")  # copies
        b = np.array(b_blocks, dtype=float, order="C")
        if s.shape != (n_y, n_p, n_p) or b.shape != (n_y, n_p):
            raise DimensionMismatch(
                f"expected blocks ({n_y},{n_p},{n_p}) and ({n_y},{n_p}), "
                f"got {s.shape} and {b.shape}"
            )
        if horseshoe.local_scales.shape != (n_p, n_y):
            raise DimensionMismatch("horseshoe shape does not match spec/noise")
        s.flags.writeable = b.flags.writeable = False
        self._set(spec, noise, horseshoe, s, b, *_factor(s, b))

    @classmethod
    def _factored(cls, spec, noise, horseshoe, s, b, inv, mean, std):
        """A posterior of read-only blocks that _factor has factored, as
        posteriors_from_moments slices them from its stacks."""
        post = cls.__new__(cls)
        post._set(spec, noise, horseshoe, s, b, inv, mean, std)
        return post

    def _set(self, spec, noise, horseshoe, s, b, inv, mean, std):
        self.spec = spec
        self.noise = noise
        self.horseshoe = horseshoe
        self.s_blocks, self.b_blocks = s, b
        self._inv, self._mean, self._std = inv, mean, std

    @property
    def n_outputs(self) -> int:
        return self.noise.n_outputs

    def mean_blocks(self) -> np.ndarray:
        """(n_outputs, n_terms) coefficient posterior means, L^-T L^-1 b."""
        return self._mean

    def covariance_blocks(self) -> np.ndarray:
        """(n_outputs, n_terms, n_terms) per-output posterior covariances,
        L^-T L^-1."""
        cov = self._inv.transpose(0, 2, 1) @ self._inv
        return 0.5 * (cov + cov.transpose(0, 2, 1))

    def std_blocks(self) -> np.ndarray:
        """(n_outputs, n_terms) marginal posterior standard deviations: the
        column norms of L^-1."""
        return self._std

    def __repr__(self):
        return f"PosteriorState(n_terms={self.spec.n_columns}, n_outputs={self.n_outputs})"


def posterior_from_moments(
    spec: DictionarySpec,
    noise: NoiseModel,
    horseshoe: HorseshoeState,
    window_gram: np.ndarray,
    cross: np.ndarray,
) -> PosteriorState:
    """Posterior of a window given by its Gram G and cross-moment C.

    Block i is S_i = G / sigma_i^2 + diag(prior precision of output i) and
    b_i = C[:, i] / sigma_i^2: all outputs share one Gram. PosteriorState
    raises NonFiniteInput when a block overflows, and NotPositiveDefinite
    when one is not positive definite.
    """
    s_blocks, b_blocks = _information(noise, horseshoe, window_gram, cross)
    return PosteriorState(spec, noise, horseshoe, s_blocks, b_blocks)


def posteriors_from_moments(
    spec: DictionarySpec,
    noise: NoiseModel,
    horseshoe: HorseshoeState,
    grams: np.ndarray,
    crosses: np.ndarray,
) -> tuple:
    """Posteriors of k windows at one prior, given by a stack of Grams (k x
    n_p x n_p) and one of cross-moments (k x n_p x n_y); each has the bytes
    that posterior_from_moments gives its window.

    The k x n_y blocks are assembled as one stack and factored by one
    np.linalg.cholesky call. Returns (the posteriors of the leading windows,
    up to the first whose posterior cannot be built; that window's
    NonFiniteInput or NotPositiveDefinite, or None when all k are built).
    Only when the stacked call fails is that window looked for, by
    factoring the windows before it one at a time: when window i (from 0)
    cannot be built, the call makes at most i + 1 Cholesky calls, one
    when it is the only window.
    """
    s, b = _information(noise, horseshoe, grams, crosses)
    s.flags.writeable = b.flags.writeable = False
    error = None
    try:
        factored = zip(s, b, *_factor(s, b))
    except (NonFiniteInput, NotPositiveDefinite) as stacked:
        # the last window is the bad one unless one before it is
        factored, error = [], stacked
        for blocks in zip(s[:-1], b[:-1]):
            try:
                factored.append((*blocks, *_factor(*blocks)))
            except (NonFiniteInput, NotPositiveDefinite) as exc:
                error = exc
                break
    posts = [PosteriorState._factored(spec, noise, horseshoe, *blocks) for blocks in factored]
    return posts, error


def _information(noise: NoiseModel, horseshoe: HorseshoeState, grams, crosses) -> tuple:
    """The C-contiguous information blocks S (... x n_y x n_p x n_p) and
    vectors b (... x n_y x n_p) of windows given by their Grams G (... x n_p
    x n_p) and cross-moments C (... x n_p x n_y): S_i = G / sigma_i^2 +
    diag(the prior precision of output i) and b_i = C[:, i] / sigma_i^2."""
    var = noise.output_variances
    s = grams[..., None, :, :] / var[:, None, None]
    n_p = s.shape[-1]
    s.reshape(*s.shape[:-2], n_p * n_p)[..., :: n_p + 1] += horseshoe.prior_precision_blocks()
    return s, np.divide(np.swapaxes(crosses, -1, -2), var[:, None], order="C")


def _factor(s: np.ndarray, b: np.ndarray) -> tuple:
    """The inverse factors L^-1, the means L^-T L^-1 b and the marginal
    stds (the column norms of L^-1) of a C-contiguous stack of information
    blocks S = L L^T (... x n_p x n_p) and vectors b (... x n_p), each
    read-only.

    One np.linalg.cholesky call factors the whole stack. numpy runs the
    same LAPACK call on each matrix of a stack, so a block gets the bytes
    it gets alone. Raises NonFiniteInput when a block is not finite
    (cholesky passes NaN), and NotPositiveDefinite when one is not positive
    definite.
    """
    if not (np.isfinite(s).all() and np.isfinite(b).all()):
        raise NonFiniteInput("the window moments overflow the posterior information")
    try:
        factor = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "posterior information block is not positive definite"
        ) from exc
    inv = np.linalg.inv(factor)
    mean = (inv.swapaxes(-1, -2) @ (inv @ b[..., None]))[..., 0]
    std = np.sqrt(np.einsum("...ij,...ij->...j", inv, inv))
    for a in (inv, mean, std):
        a.flags.writeable = False
    return inv, mean, std


def batch_fit(
    spec: DictionarySpec,
    rows,
    noise: NoiseModel,
    horseshoe: HorseshoeState,
) -> PosteriorState:
    """Posterior of one window of rows at the given prior scales:
    posterior_from_moments of its Gram Psi.T @ Psi and cross-moment
    Psi.T @ Y. rows is a block of rows, as recursion.init takes it.

    Per output i the information block is Gram / sigma_i^2 plus the diagonal
    prior precision, and the information vector is Psi.T @ y_i / sigma_i^2.
    fit_moments of the same moments re-estimates the scales from the fit.
    """
    _, x, y = stack_rows(rows, noise.n_outputs)
    if len(x) == 0:
        raise ValueError("cannot fit an empty window")
    psi = build_matrix(spec, x)
    return posterior_from_moments(spec, noise, horseshoe, gram(psi), psi.T @ y)


def refresh_horseshoe(
    post: PosteriorState, max_sweeps: int = 2000, rel_tol: float = 1e-7
) -> HorseshoeState:
    """Deterministic fixed-point update of the prior scales.

    Uses the current posterior second moments E[beta^2] = mean^2 + var
    (frozen for the whole refresh) and sweeps the standard inverse-gamma
    auxiliary updates for the local and global scales until the relative
    change drops below rel_tol or the sweep budget runs out. All scales are
    clamped to [1e-6, 1e6], which keeps the fixed point finite.

    The product lambda*tau converges in a handful of sweeps but the split
    between the two factors slides multiplicatively and only settles once a
    clamp is reached, hence the generous sweep budget. On the benchmark
    streams (seed 1) the first refresh of a Lorenz W=1000 warmup takes 290
    sweeps and the later ones 104-165; an adaptive batch fit stops at its
    20-refresh cap on both Lorenz warmups and after 16 refreshes on case1
    (m=50, W=200). Refreshes inside the stream take a median of 103.5 sweeps
    on lorenz-b1, 46 on lorenz-b50 and 48.5 on case1-m50.
    """
    hs = post.horseshoe
    # second moments indexed (term, output), C-ordered like the scales: the
    # sweeps then run on contiguous arrays, and sum in the scales' order
    second = (post.mean_blocks() ** 2 + post.std_blocks() ** 2).T.copy()
    lam2 = hs.local_scales**2
    tau2 = hs.global_scale**2
    root, tau = np.sqrt(lam2), math.sqrt(tau2)
    shape = (lam2.size + 3) / 2.0
    lo, hi = SCALE_FLOOR**2, SCALE_CEIL**2
    for _ in range(max_sweeps):
        lam2 = np.minimum(np.maximum((lam2 / (lam2 + 1.0) + second / (2.0 * tau2)) * 0.5, lo), hi)
        local_sum = float((second / (lam2 * 2.0)).sum())
        tau2 = min(max((tau2 / (1.0 + tau2) + local_sum) / shape, lo), hi)
        previous = root, tau
        root, tau = np.sqrt(lam2), math.sqrt(tau2)
        if _largest_change((root, tau), previous) < rel_tol:
            break
    return HorseshoeState(local_scales=root, global_scale=tau)


def _largest_change(scales: tuple, previous: tuple) -> float:
    """The largest relative change of any scale, local or global, from
    previous to scales, each a (local array, global float) pair."""
    (local, glob), (local_0, glob_0) = scales, previous
    return max(float((abs(local - local_0) / local_0).max()), abs(glob - glob_0) / glob_0)


def fit_moments(
    spec: DictionarySpec,
    noise: NoiseModel,
    horseshoe: HorseshoeState,
    window_gram: np.ndarray,
    cross: np.ndarray,
    max_outer: int,
) -> PosteriorState:
    """Batch fit of a window given by its Gram and cross-moment, with the
    prior scales re-estimated from the fit itself.

    Alternates refresh_horseshoe and re-assembly from the window moments
    until no scale moves by more than 1e-4, relatively (at most max_outer
    times; 0 keeps the given scales). The returned posterior is exactly
    posterior_from_moments at the final scales. Raises NotPositiveDefinite
    if a posterior it builds is not PD.
    """
    post = posterior_from_moments(spec, noise, horseshoe, window_gram, cross)
    for _ in range(max_outer):
        refreshed = refresh_horseshoe(post)
        prior = post.horseshoe
        rel = _largest_change(
            (refreshed.local_scales, refreshed.global_scale),
            (prior.local_scales, prior.global_scale),
        )
        post = posterior_from_moments(spec, noise, refreshed, window_gram, cross)
        if rel < 1e-4:
            break
    return post
