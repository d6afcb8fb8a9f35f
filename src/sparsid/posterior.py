"""Multi-output Bayesian regression posterior over dictionary coefficients.

With a diagonal output-noise covariance and an elementwise prior, the joint
information matrix over all coefficients is block diagonal per output:
block i equals Gram(window) / sigma_i^2 plus the prior precision of that
output's coefficients. Everything here exploits that structure, so the
cost is n_y solves of size n_p instead of one solve of size n_y * n_p.

Coefficients are ordered output-major: the flat vector stacks output 0's
n_p coefficients first, then output 1's, and so on (the column-major
vectorization of the n_p x n_y coefficient matrix).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import DictionarySpec, Sample, build_matrix, build_row
from .errors import DimensionMismatch, NotPositiveDefinite, SingularInformation
from .gaussian import InformationForm
from .monitor import gram

__all__ = [
    "NoiseModel",
    "HorseshoeState",
    "PosteriorState",
    "initial_horseshoe",
    "batch_fit",
    "batch_fit_adaptive",
    "window_moments",
    "posterior_from_moments",
    "refresh_horseshoe",
    "predict",
    "snapshot_dict",
    "estimate_noise",
]

SCALE_FLOOR = 1e-6
SCALE_CEIL = 1e6


class _LazyLinalg:
    """scipy.linalg, imported at the first factorization: monitor and
    simulate runs never factor a posterior, so they never load scipy.
    Looking a function up imports nothing, so `posterior.linalg` can be
    patched without loading scipy (perfbench/spans.py counts the
    `cho_factor` calls made through it)."""

    def __getattr__(self, name):
        def first_call(*args, **kwargs):
            from scipy import linalg

            fn = getattr(linalg, name)
            setattr(self, name, fn)  # later calls go straight to scipy
            return fn(*args, **kwargs)

        return first_call


linalg = _LazyLinalg()


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

    @property
    def precisions(self) -> np.ndarray:
        return 1.0 / self.output_variances


@dataclass(frozen=True)
class HorseshoeState:
    """Sparsity-inducing prior scales: one local scale per coefficient and a
    shared global scale. The implied prior on coefficient (term i, output j)
    is a zero-mean Gaussian with variance local[i, j]^2 * global^2.

    fixed_mask marks entries whose local scale is pinned (e.g. known drift
    columns); the adaptive refresh never moves them.
    """

    local_scales: np.ndarray
    global_scale: float
    fixed_mask: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.local_scales, dtype=float)
        if lam.ndim != 2:
            raise DimensionMismatch("local_scales must be (n_terms, n_outputs)")
        if not np.isfinite(lam).all() or (lam <= 0.0).any():
            raise ValueError("local scales must be finite and positive")
        if not (np.isfinite(self.global_scale) and self.global_scale > 0.0):
            raise ValueError("global scale must be finite and positive")
        mask = self.fixed_mask
        if mask is None:
            mask = np.zeros(lam.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != lam.shape:
                raise DimensionMismatch("fixed_mask shape must match local_scales")
        object.__setattr__(self, "local_scales", lam.copy())
        object.__setattr__(self, "fixed_mask", mask.copy())

    @property
    def n_terms(self) -> int:
        return self.local_scales.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.local_scales.shape[1]

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
    """Uniform starting scales, honoring any per-column override in the spec."""
    lam = np.full((spec.n_columns, n_outputs), float(scale))
    mask = np.zeros((spec.n_columns, n_outputs), dtype=bool)
    if spec.prior_scale_override is not None:
        for i, pinned in enumerate(spec.prior_scale_override):
            if pinned is not None:
                lam[i, :] = float(pinned)
                mask[i, :] = True
    return HorseshoeState(local_scales=lam, global_scale=float(tau), fixed_mask=mask)


class PosteriorState:
    """Gaussian coefficient posterior in information form.

    Built from per-output blocks; the assembled full information form is
    available through .info. Mean and covariance solves are done per block
    and cached. Treat instances as immutable.
    """

    __slots__ = (
        "spec",
        "noise",
        "horseshoe",
        "sample_count",
        "s_blocks",
        "b_blocks",
        "_mean_blocks",
        "_cov_blocks",
        "_info",
    )

    def __init__(
        self,
        spec: DictionarySpec,
        noise: NoiseModel,
        horseshoe: HorseshoeState,
        s_blocks: np.ndarray,
        b_blocks: np.ndarray,
        sample_count: int,
    ):
        n_y = noise.n_outputs
        n_p = spec.n_columns
        s = np.asarray(s_blocks, dtype=float)
        b = np.asarray(b_blocks, dtype=float)
        if s.shape != (n_y, n_p, n_p) or b.shape != (n_y, n_p):
            raise DimensionMismatch(
                f"expected blocks ({n_y},{n_p},{n_p}) and ({n_y},{n_p}), "
                f"got {s.shape} and {b.shape}"
            )
        if horseshoe.local_scales.shape != (n_p, n_y):
            raise DimensionMismatch("horseshoe shape does not match spec/noise")
        self.spec = spec
        self.noise = noise
        self.horseshoe = horseshoe
        self.sample_count = int(sample_count)
        self.s_blocks = s.copy()
        self.b_blocks = b.copy()
        self._mean_blocks = None
        self._cov_blocks = None
        self._info = None

    @property
    def n_outputs(self) -> int:
        return self.noise.n_outputs

    @property
    def n_terms(self) -> int:
        return self.spec.n_columns

    @property
    def info(self) -> InformationForm:
        if self._info is None:
            n_p = self.n_terms
            full = np.zeros((self.n_outputs * n_p,) * 2)
            for i, s in enumerate(self.s_blocks):
                full[i * n_p : (i + 1) * n_p, i * n_p : (i + 1) * n_p] = s
            self._info = InformationForm(full, self.b_blocks.ravel())
        return self._info

    def _factors(self):
        try:
            return [linalg.cho_factor(s, lower=True) for s in self.s_blocks]
        except np.linalg.LinAlgError as exc:  # scipy.linalg raises numpy's
            raise SingularInformation(
                "posterior information block is not positive definite"
            ) from exc

    def mean_blocks(self) -> np.ndarray:
        """(n_outputs, n_terms) coefficient posterior means."""
        if self._mean_blocks is None:
            factors = self._factors()
            self._mean_blocks = np.stack(
                [linalg.cho_solve(f, b) for f, b in zip(factors, self.b_blocks)]
            )
        return self._mean_blocks

    def covariance_blocks(self) -> np.ndarray:
        """(n_outputs, n_terms, n_terms) per-output posterior covariances."""
        if self._cov_blocks is None:
            factors = self._factors()
            eye = np.eye(self.n_terms)
            covs = [linalg.cho_solve(f, eye) for f in factors]
            self._cov_blocks = np.stack([0.5 * (c + c.T) for c in covs])
        return self._cov_blocks

    def mean(self) -> np.ndarray:
        """Flat posterior mean in coefficient order."""
        return self.mean_blocks().ravel()

    def std_blocks(self) -> np.ndarray:
        """(n_outputs, n_terms) marginal posterior standard deviations."""
        diags = np.stack([np.diag(c) for c in self.covariance_blocks()])
        return np.sqrt(np.maximum(diags, 0.0))

    def is_positive_definite(self) -> bool:
        try:
            self._factors()
        except SingularInformation:
            return False
        return True

    def __repr__(self):
        return (
            f"PosteriorState(n_terms={self.n_terms}, n_outputs={self.n_outputs}, "
            f"sample_count={self.sample_count})"
        )


def _design_and_targets(spec: DictionarySpec, samples: list) -> tuple:
    states = np.asarray([s.state for s in samples], dtype=float)
    targets = np.asarray([s.observation for s in samples], dtype=float)
    return build_matrix(spec, states), targets


def window_moments(spec: DictionarySpec, samples: list, n_outputs: int) -> tuple:
    """Sufficient statistics of a window: the Gram Psi.T @ Psi (n_p x n_p)
    and the cross-moment Psi.T @ Y (n_p x n_outputs)."""
    if len(samples) == 0:
        raise ValueError("cannot fit an empty window")
    psi, targets = _design_and_targets(spec, samples)
    if targets.shape[1] != n_outputs:
        raise DimensionMismatch(
            f"observations have {targets.shape[1]} outputs, noise model has {n_outputs}"
        )
    return gram(psi), psi.T @ targets


def posterior_from_moments(
    spec: DictionarySpec,
    noise: NoiseModel,
    horseshoe: HorseshoeState,
    window_gram: np.ndarray,
    cross: np.ndarray,
    sample_count: int,
) -> PosteriorState:
    """Posterior of a window given by its Gram G and cross-moment C.

    Block i is S_i = G / sigma_i^2 + diag(prior precision of output i) and
    b_i = C[:, i] / sigma_i^2: all outputs share one Gram. Does not check
    definiteness; see PosteriorState.is_positive_definite.
    """
    var = noise.output_variances
    s_blocks = window_gram / var[:, None, None]
    diag = np.arange(spec.n_columns)
    s_blocks[:, diag, diag] += horseshoe.prior_precision_blocks()
    return PosteriorState(
        spec, noise, horseshoe, s_blocks, cross.T / var[:, None], sample_count
    )


def batch_fit(
    spec: DictionarySpec,
    samples: list,
    noise: NoiseModel,
    horseshoe: HorseshoeState,
) -> PosteriorState:
    """Exact posterior from one window of samples at fixed prior scales.

    Per output i the information block is Gram / sigma_i^2 plus the diagonal
    prior precision, and the information vector is Psi.T @ y_i / sigma_i^2.
    """
    return batch_fit_adaptive(spec, samples, noise, horseshoe, max_outer=0)


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
    clamp is reached, hence the generous sweep budget (each sweep is a few
    vector ops, so a full slide costs single-digit milliseconds).
    """
    hs = post.horseshoe
    # second moments indexed (term, output) to match the scale layout
    second = (post.mean_blocks() ** 2 + post.std_blocks() ** 2).T
    lam2 = hs.local_scales**2
    tau2 = hs.global_scale**2
    fixed = hs.fixed_mask
    d = lam2.size
    lo, hi = SCALE_FLOOR**2, SCALE_CEIL**2
    for _ in range(max_sweeps):
        lam_prev, tau_prev = lam2, tau2
        inv_nu = lam2 / (1.0 + lam2)
        proposal = 0.5 * (inv_nu + second / (2.0 * tau2))
        lam2 = np.where(fixed, lam2, np.clip(proposal, lo, hi))
        inv_zeta = tau2 / (1.0 + tau2)
        tau2 = float(
            np.clip(
                (inv_zeta + float(np.sum(second / (2.0 * lam2)))) / ((d + 3) / 2.0),
                lo,
                hi,
            )
        )
        rel = max(
            float(np.max(np.abs(np.sqrt(lam2) - np.sqrt(lam_prev)) / np.sqrt(lam_prev))),
            abs(math.sqrt(tau2) - math.sqrt(tau_prev)) / math.sqrt(tau_prev),
        )
        if rel < rel_tol:
            break
    return HorseshoeState(
        local_scales=np.sqrt(lam2), global_scale=math.sqrt(tau2), fixed_mask=fixed
    )


def batch_fit_adaptive(
    spec: DictionarySpec,
    samples: list,
    noise: NoiseModel,
    horseshoe: HorseshoeState,
    max_outer: int = 20,
    rel_tol: float = 1e-4,
) -> PosteriorState:
    """Batch fit with the prior scales re-estimated from the fit itself.

    Alternates refresh_horseshoe and re-assembly from the window moments
    until the scales settle (at most max_outer times). The returned
    posterior is exactly batch_fit at the final scales.
    """
    moments = window_moments(spec, samples, noise.n_outputs)
    post = posterior_from_moments(spec, noise, horseshoe, *moments, len(samples))
    if not post.is_positive_definite():
        raise NotPositiveDefinite("batch posterior information is not PD")
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
        post = posterior_from_moments(spec, noise, refreshed, *moments, len(samples))
        if rel < rel_tol:
            break
    return post


def predict(post: PosteriorState, state: np.ndarray) -> tuple:
    """Predictive mean and variance for each output at one state.

    The mean is computed as an elementwise product-and-sum so that a term
    contribution table built from the same row sums to it exactly.
    """
    row = build_row(post.spec, state)
    means = post.mean_blocks()
    covs = post.covariance_blocks()
    mean = np.array([float(np.sum(row * means[i])) for i in range(post.n_outputs)])
    var = np.array(
        [
            float(row @ covs[i] @ row) + float(post.noise.output_variances[i])
            for i in range(post.n_outputs)
        ]
    )
    return mean, var


def snapshot_dict(post: PosteriorState) -> dict:
    """JSON-serializable snapshot of the posterior."""
    return {
        "terms": list(post.spec.column_labels),
        "coef_mean": post.mean_blocks().tolist(),
        "coef_std": post.std_blocks().tolist(),
        "local_scales": post.horseshoe.local_scales.tolist(),
        "global_scale": float(post.horseshoe.global_scale),
        "noise_variances": post.noise.output_variances.tolist(),
        "sample_count": post.sample_count,
    }


def estimate_noise(
    spec: DictionarySpec, samples: list, coef_means: np.ndarray
) -> NoiseModel:
    """Residual-based noise estimate: windowed mean squared residual per
    output, given coefficient means of shape (n_outputs, n_terms)."""
    psi, targets = _design_and_targets(spec, samples)
    resid = targets - psi @ np.asarray(coef_means, dtype=float).T
    msr = np.mean(resid**2, axis=0)
    return NoiseModel(output_variances=np.maximum(msr, 1e-12))
