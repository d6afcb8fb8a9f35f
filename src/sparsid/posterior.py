"""Multi-output Bayesian regression posterior over dictionary coefficients.

With a diagonal output-noise covariance and an elementwise prior, the joint
information matrix over all coefficients is block diagonal per output:
block i equals Gram(window) / sigma_i^2 plus the prior precision of that
output's coefficients. Everything here exploits that structure, so the
cost is n_y solves of size n_p instead of one solve of size n_y * n_p.
A posterior factors its n_y blocks at construction, with one numpy
Cholesky call over the stack, and its mean, marginal stds and covariance
all come from that factor, so every posterior is proper and has moments;
numpy is the only dependency.

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

    def prior_precision_blocks(self) -> np.ndarray:
        """(n_outputs, n_terms) array of 1 / (local^2 * global^2)."""
        return (1.0 / (self.local_scales**2 * self.global_scale**2)).T

    @property
    def prior_precision(self) -> np.ndarray:
        """Flat prior precision in coefficient order (output-major)."""
        return self.prior_precision_blocks().ravel()


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
        if not (np.isfinite(s).all() and np.isfinite(b).all()):  # cholesky passes NaN
            raise NonFiniteInput("the window moments overflow the posterior information")
        try:
            factor = np.linalg.cholesky(s)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                "posterior information block is not positive definite"
            ) from exc
        inv = np.linalg.inv(factor)  # L^-1
        mean = (inv.transpose(0, 2, 1) @ (inv @ b[:, :, None]))[:, :, 0]  # L^-T L^-1 b
        std = np.sqrt(np.einsum("kij,kij->kj", inv, inv))  # the column norms of L^-1
        for a in (s, b, inv, mean, std):
            a.flags.writeable = False
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

    def mean(self) -> np.ndarray:
        """Flat posterior mean in coefficient order."""
        return self._mean.ravel()

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
    var = noise.output_variances
    s_blocks = window_gram / var[:, None, None]
    diag = np.arange(spec.n_columns)
    s_blocks[:, diag, diag] += horseshoe.prior_precision_blocks()
    b_blocks = cross.T / var[:, None]
    return PosteriorState(spec, noise, horseshoe, s_blocks, b_blocks)


def batch_fit(
    spec: DictionarySpec,
    rows,
    noise: NoiseModel,
    horseshoe: HorseshoeState,
    max_outer: int = 0,
) -> PosteriorState:
    """Posterior of one window of rows: fit_moments of its Gram Psi.T @ Psi
    and cross-moment Psi.T @ Y. rows is a block of rows, as recursion.init
    takes it.

    Per output i the information block is Gram / sigma_i^2 plus the diagonal
    prior precision, and the information vector is Psi.T @ y_i / sigma_i^2.
    With max_outer 0 (the default) the prior scales stay as given; with
    max_outer > 0 (MAX_OUTER, say) they are re-estimated from the fit itself.
    """
    _, x, y = stack_rows(rows, noise.n_outputs)
    if len(x) == 0:
        raise ValueError("cannot fit an empty window")
    psi = build_matrix(spec, x)
    return fit_moments(spec, noise, horseshoe, gram(psi), psi.T @ y, max_outer)


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

    A sweep is 15 numpy calls that write into three work arrays made once
    per call, and the convergence test reuses the previous sweep's roots.
    Each IEEE operation, and its order, is that of the plain expression in
    the comment above it, so the scales are bitwise those of the plain
    expressions. A refresh costs about 1.4 ms on case1-m50, 1.9 ms on
    lorenz-b50 and 3.4 ms on lorenz-b1 (median CPU time per call on a
    2-CPU x86-64 host, numpy 2.4).
    """
    hs = post.horseshoe
    # second moments indexed (term, output) to match the scale layout
    second = (post.mean_blocks() ** 2 + post.std_blocks() ** 2).T
    lam2 = hs.local_scales**2
    tau2 = hs.global_scale**2
    # the roots of the previous sweep, which the convergence test divides by
    root, tau = np.sqrt(lam2), math.sqrt(tau2)
    # every sweep writes into these three; like lam2 they are C-ordered, so
    # ratio.sum() adds in the order that np.sum(second / (2.0 * lam2)) would
    work, ratio, root_next = np.empty((3, *lam2.shape))
    shape = (lam2.size + 3) / 2.0
    lo, hi = SCALE_FLOOR**2, SCALE_CEIL**2
    for _ in range(max_sweeps):
        # lam2 <- clip(0.5 * (lam2 / (1 + lam2) + second / (2 tau2)), lo, hi)
        np.add(lam2, 1.0, out=work)
        np.divide(lam2, work, out=work)
        np.divide(second, 2.0 * tau2, out=lam2)
        np.add(work, lam2, out=lam2)
        np.multiply(lam2, 0.5, out=lam2)
        np.maximum(lam2, lo, out=lam2)
        np.minimum(lam2, hi, out=lam2)
        # tau2 <- clip((tau2 / (1 + tau2) + sum(second / (2 lam2))) / shape)
        np.multiply(lam2, 2.0, out=ratio)
        np.divide(second, ratio, out=ratio)
        tau2 = min(max((tau2 / (1.0 + tau2) + float(ratio.sum())) / shape, lo), hi)
        # largest relative change of any scale, lambda or tau
        np.sqrt(lam2, out=root_next)
        np.subtract(root_next, root, out=work)
        np.abs(work, out=work)
        np.divide(work, root, out=work)
        tau_next = math.sqrt(tau2)
        rel = max(float(work.max()), abs(tau_next - tau) / tau)
        root, root_next, tau = root_next, root, tau_next
        if rel < rel_tol:
            break
    return HorseshoeState(local_scales=root, global_scale=tau)


def fit_moments(
    spec: DictionarySpec,
    noise: NoiseModel,
    horseshoe: HorseshoeState,
    window_gram: np.ndarray,
    cross: np.ndarray,
    max_outer: int = MAX_OUTER,
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
        rel = max(
            float(
                np.max(
                    np.abs(refreshed.local_scales - post.horseshoe.local_scales)
                    / post.horseshoe.local_scales
                )
            ),
            abs(refreshed.global_scale - post.horseshoe.global_scale)
            / post.horseshoe.global_scale,
        )
        post = posterior_from_moments(spec, noise, refreshed, window_gram, cross)
        if rel < 1e-4:
            break
    return post
