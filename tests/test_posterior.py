"""Blockwise sparse posterior against literal dense oracles.

The blockwise fit must agree with the unfactored joint posterior: stack the
per-output coefficient vectors output-major and form the full information
matrix as a Kronecker product of the output precision with the Gram matrix
plus the diagonal prior. The oracle below builds that dense system directly.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg

from sparsid import (
    DictionarySpec,
    DimensionMismatch,
    HorseshoeState,
    NoiseModel,
    NonFiniteInput,
    NotPositiveDefinite,
    PosteriorState,
    Sample,
    batch_fit,
    build_matrix,
    initial_horseshoe,
    refresh_horseshoe,
)
from sparsid.dictionary import stack_rows
from sparsid.monitor import gram
from sparsid.posterior import MAX_OUTER, SCALE_CEIL, SCALE_FLOOR, fit_moments
from sparsid.posterior import posterior_from_moments

from conftest import make_samples


def dense_oracle(psi, ys, variances, prior_precision):
    """Joint information-form posterior with no block shortcuts."""
    n_y = ys.shape[1]
    sigma_inv = np.diag(1.0 / variances)
    s = np.kron(sigma_inv, psi.T @ psi) + np.diag(prior_precision)
    b = (psi.T @ ys @ sigma_inv).ravel(order="F")
    return s, b, np.linalg.solve(s, b)


def dense_information(post):
    """The joint information matrix and vector of a blockwise posterior: the
    s_blocks on the diagonal, the b_blocks stacked output-major."""
    return linalg.block_diag(*post.s_blocks), post.b_blocks.ravel()


def fit_from_arrays(spec, states, ys, noise, horseshoe):
    samples = [
        Sample(float(i), states[i], ys[i]) for i in range(len(states))
    ]
    return batch_fit(spec, samples, noise, horseshoe)


def test_single_sample_scalar_posterior():
    # one feature, one sample: S = 1/sigma^2 + 1/theta, b = y/sigma^2
    spec = DictionarySpec(state_dim=1, poly_degree=1, include_bias=False)
    noise = NoiseModel([0.5])
    hs = initial_horseshoe(spec, 1)  # unit scales: prior precision 1
    post = fit_from_arrays(spec, np.array([[1.0]]), np.array([[1.0]]), noise, hs)
    assert post.s_blocks[0, 0, 0] == pytest.approx(3.0)
    assert post.b_blocks[0, 0] == pytest.approx(2.0)
    assert post.mean_blocks()[0, 0] == pytest.approx(2.0 / 3.0)
    assert post.covariance_blocks()[0][0, 0] == pytest.approx(1.0 / 3.0)


def test_blockwise_fit_matches_dense_oracle(rng):
    for _ in range(20):
        n_p = int(rng.integers(1, 6))
        n_y = int(rng.integers(1, 4))
        t = int(rng.integers(n_p + 1, 30))
        spec = DictionarySpec(state_dim=n_p, poly_degree=1, include_bias=False)
        states = rng.normal(size=(t, n_p))
        ys = rng.normal(size=(t, n_y))
        variances = rng.uniform(0.2, 2.0, size=n_y)
        scales = rng.uniform(0.2, 3.0, size=(n_p, n_y))
        hs = HorseshoeState(local_scales=scales, global_scale=float(rng.uniform(0.5, 2)))
        post = fit_from_arrays(spec, states, ys, NoiseModel(variances), hs)
        psi = build_matrix(spec, states)
        s_ref, b_ref, mu_ref = dense_oracle(psi, ys, variances, hs.prior_precision_blocks().ravel())
        s_dense, b_dense = dense_information(post)
        assert np.max(np.abs(s_dense - s_ref)) < 1e-10
        assert np.max(np.abs(b_dense - b_ref)) < 1e-10
        assert np.max(np.abs(post.mean_blocks().ravel() - mu_ref)) < 1e-10


def test_moments_match_dense_solves(rng):
    n_y, n_p = 3, 4
    a = rng.normal(size=(n_y, n_p, n_p))
    s_blocks = a @ a.transpose(0, 2, 1) + np.eye(n_p)
    b_blocks = rng.normal(size=(n_y, n_p))
    spec = DictionarySpec(state_dim=n_p, poly_degree=1, include_bias=False)
    hs = initial_horseshoe(spec, n_y)
    post = PosteriorState(spec, NoiseModel(np.ones(n_y)), hs, s_blocks, b_blocks)
    for s, b, mean, cov in zip(
        s_blocks, b_blocks, post.mean_blocks(), post.covariance_blocks()
    ):
        np.testing.assert_allclose(mean, np.linalg.solve(s, b), rtol=1e-12)
        np.testing.assert_allclose(cov, np.linalg.inv(s), rtol=1e-9)
    stds = np.sqrt(np.diagonal(np.linalg.inv(s_blocks), axis1=1, axis2=2))
    np.testing.assert_allclose(post.std_blocks(), stds, rtol=1e-12)
    # immutable: every array it holds or hands out is read-only, and the
    # caller's blocks are copied, not frozen
    held = (post.s_blocks, post.b_blocks, post.mean_blocks(), post.std_blocks())
    assert not any(a.flags.writeable for a in held)
    assert s_blocks.flags.writeable and b_blocks.flags.writeable
    with pytest.raises(ValueError):
        post.mean_blocks()[0, 0] = 0.0


@pytest.mark.parametrize(
    "window_gram,variances",
    [
        (np.diag([1.0, -1.5]), [4.0, 0.5]),  # output 1's block is indefinite
        (np.diag([0.0, -1.0]), [1.0, 4.0]),  # output 0's block is singular
    ],
    ids=["indefinite", "singular"],
)
def test_posterior_that_lost_definiteness_has_no_moments(window_gram, variances):
    """What the rollback guard of recursion.step rests on: a window Gram
    that has lost more information than the prior holds gives no
    posterior; building one raises NotPositiveDefinite."""
    spec = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)
    hs = initial_horseshoe(spec, 2)  # unit prior precision
    noise = NoiseModel(variances)
    s_blocks = window_gram / noise.output_variances[:, None, None] + np.eye(2)
    # the other output's block is positive definite: one bad block decides
    assert sum(np.linalg.eigvalsh(s_blocks).min(axis=1) > 0.0) == 1
    with pytest.raises(NotPositiveDefinite):
        posterior_from_moments(spec, noise, hs, window_gram, np.zeros((2, 2)))
    with pytest.raises(NotPositiveDefinite):
        PosteriorState(spec, noise, hs, s_blocks, np.zeros((2, 2)))


def test_non_finite_information_has_no_posterior():
    """np.linalg.cholesky factors a NaN block without complaint, so the
    constructor checks the blocks itself: no posterior has NaN moments."""
    spec = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)
    hs = initial_horseshoe(spec, 1)
    for bad in ((0, 1, 1), (0, 0, 0)):
        s_blocks = np.eye(2)[None].copy()
        s_blocks[bad] = np.nan
        with pytest.raises(NonFiniteInput):
            PosteriorState(spec, NoiseModel([1.0]), hs, s_blocks, np.zeros((1, 2)))
    with pytest.raises(NonFiniteInput):
        PosteriorState(spec, NoiseModel([1.0]), hs, np.eye(2)[None], [[np.inf, 0.0]])


def test_flat_prior_limit_recovers_least_squares(rng):
    spec = DictionarySpec(state_dim=3, poly_degree=1, include_bias=False)
    states = rng.normal(size=(40, 3))
    ys = rng.normal(size=(40, 1))
    hs = HorseshoeState(local_scales=np.full((3, 1), 1e3), global_scale=1e3)
    post = fit_from_arrays(spec, states, ys, NoiseModel([1.0]), hs)
    lstsq = np.linalg.lstsq(build_matrix(spec, states), ys[:, 0], rcond=None)[0]
    np.testing.assert_allclose(post.mean_blocks()[0], lstsq, atol=1e-8)


def test_tiny_scales_shrink_to_zero(rng):
    spec = DictionarySpec(state_dim=3, poly_degree=1, include_bias=False)
    coef = np.array([[4.0], [0.0], [-2.0]])
    samples = make_samples(rng, spec, coef, noise_std=0.1, n=80)
    hs = HorseshoeState(local_scales=np.full((3, 1), 1e-6), global_scale=1.0)
    post = batch_fit(spec, samples, NoiseModel([0.01]), hs)
    assert np.max(np.abs(post.mean_blocks())) < 1e-4


def test_posterior_diagonal_dominates_prior(rng):
    spec = DictionarySpec(state_dim=2, poly_degree=2)
    samples = make_samples(rng, spec, np.zeros((spec.n_columns, 1)), 0.5, n=30)
    hs = initial_horseshoe(spec, 1)
    post = batch_fit(spec, samples, NoiseModel([2.0]), hs)
    prior_diag = hs.prior_precision_blocks()
    for i in range(1):
        assert np.all(np.diag(post.s_blocks[i]) >= prior_diag[i] - 1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel([1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        NoiseModel([])


def test_horseshoe_state_validation():
    with pytest.raises(ValueError):
        HorseshoeState(local_scales=np.zeros((2, 1)), global_scale=1.0)
    with pytest.raises(ValueError):
        HorseshoeState(local_scales=np.ones((2, 1)), global_scale=-1.0)
    hs = HorseshoeState(local_scales=np.full((2, 1), 2.0), global_scale=0.5)
    np.testing.assert_allclose(hs.prior_precision_blocks(), [[1.0, 1.0]])
    # finite positive scales whose local^2, global^2 or precision
    # 1 / (local^2 * global^2) overflows or underflows, refused without a warning
    for local, tau in ((1.0, 1e155), (1e155, 1.0), (1e-155, 1.0), (1e-200, 1.0),
                       (1e100, 1e100), (1e-100, 1e-100)):
        with pytest.raises(ValueError):
            HorseshoeState(local_scales=np.array([[1.0], [local]]), global_scale=tau)
    # just inside those limits
    hs = HorseshoeState(local_scales=np.array([[1e-150], [1e150]]), global_scale=1e-4)
    assert np.isfinite(hs.prior_precision_blocks()).all()


# ------------------------------------------------------------- EM refresh


def sparse_posterior(rng, strong=5.0, n=300):
    spec = DictionarySpec(state_dim=4, poly_degree=1, include_bias=False)
    coef = np.array([[strong], [0.0], [0.0], [-strong]])
    samples = make_samples(rng, spec, coef, noise_std=0.1, n=n)
    hs = initial_horseshoe(spec, 1)
    return batch_fit(spec, samples, NoiseModel([0.01]), hs)


def test_refresh_separates_signal_from_null(rng):
    post = sparse_posterior(rng)
    hs = refresh_horseshoe(post)
    scales = hs.local_scales[:, 0]
    assert min(scales[0], scales[3]) >= 10.0 * max(scales[1], scales[2])
    assert np.all(scales >= SCALE_FLOOR)
    assert np.all(scales <= SCALE_CEIL)


def test_refresh_with_no_signal_collapses_all_scales():
    # exact-zero means and tiny variances: the scales slide to the clamp.
    # With E[beta^2] = 1e-8 the converged product obeys
    # (lambda*tau)^2 = E[beta^2]/2, so lambda*tau = 7.07e-5 split across
    # the two factors; the locals end up orders of magnitude below 1.
    spec = DictionarySpec(state_dim=3, poly_degree=1, include_bias=False)
    post = PosteriorState(
        spec, NoiseModel([1.0]), initial_horseshoe(spec, 1),
        np.array([np.eye(3) * 1e8]), np.zeros((1, 3)),
    )
    hs = refresh_horseshoe(post)
    assert np.all(hs.local_scales <= 1e-5)
    assert np.all(hs.local_scales >= SCALE_FLOOR)
    product_sq = (hs.local_scales[:, 0] * hs.global_scale) ** 2
    np.testing.assert_allclose(product_sq, 1e-8 / 2.0, rtol=1e-2)


def test_refresh_is_idempotent_at_its_fixed_point(rng):
    post = sparse_posterior(rng)
    hs1 = refresh_horseshoe(post)
    again = PosteriorState(post.spec, post.noise, hs1, post.s_blocks, post.b_blocks)
    hs2 = refresh_horseshoe(again)
    np.testing.assert_allclose(hs2.local_scales, hs1.local_scales, rtol=1e-6)
    assert hs2.global_scale == pytest.approx(hs1.global_scale, rel=1e-6)


def reference_refresh(post, max_sweeps, rel_tol=1e-7):
    """refresh_horseshoe's sweeps written with one new array per operation."""
    hs = post.horseshoe
    second = (post.mean_blocks() ** 2 + post.std_blocks() ** 2).T
    lam2 = hs.local_scales**2
    tau2 = hs.global_scale**2
    d = lam2.size
    lo, hi = SCALE_FLOOR**2, SCALE_CEIL**2
    for _ in range(max_sweeps):
        lam_prev, tau_prev = lam2, tau2
        inv_nu = lam2 / (1.0 + lam2)
        proposal = 0.5 * (inv_nu + second / (2.0 * tau2))
        lam2 = np.clip(proposal, lo, hi)
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
    return np.sqrt(lam2), math.sqrt(tau2)


@st.composite
def refresh_cases(draw):
    """A posterior with diagonal blocks, so that its second moments
    mean^2 + var are drawn directly over 1e-14..1e14 (both clamps bind),
    and prior scales anywhere inside the clamps."""
    n_p = draw(st.integers(1, 60))
    n_y = draw(st.integers(1, 4))

    def powers(lo, hi, shape):
        return 10.0 ** draw(arrays(float, shape, elements=st.floats(lo, hi)))

    var = powers(-14.0, 14.0, (n_y, n_p))
    sign = draw(arrays(float, (n_y, n_p), elements=st.sampled_from([-1.0, 1.0])))
    mean = sign * powers(-7.0, 7.0, (n_y, n_p))
    spec = DictionarySpec(state_dim=n_p, poly_degree=1, include_bias=False)
    hs = HorseshoeState(powers(-6.0, 6.0, (n_p, n_y)), float(powers(-6.0, 6.0, ())))
    s_blocks = np.zeros((n_y, n_p, n_p))
    diag = np.arange(n_p)
    s_blocks[:, diag, diag] = 1.0 / var
    post = PosteriorState(spec, NoiseModel(np.ones(n_y)), hs, s_blocks, mean / var)
    # a loose tolerance stops on the first sweeps, where a scale can move
    # by a large factor, so which root the change is taken against matters
    return post, draw(st.sampled_from([0, 1, 2, 7, 2000])), draw(st.sampled_from([1e-7, 0.5]))


@given(refresh_cases())
def test_refresh_matches_the_allocating_sweeps_bitwise(case):
    post, max_sweeps, rel_tol = case
    before = post.horseshoe.local_scales.tobytes()
    got = refresh_horseshoe(post, max_sweeps=max_sweeps, rel_tol=rel_tol)
    local, tau = reference_refresh(post, max_sweeps, rel_tol)
    assert got.local_scales.tobytes() == local.tobytes()
    assert got.global_scale == tau
    # the sweeps work in their own buffers, never in the input's scales
    assert post.horseshoe.local_scales.tobytes() == before


def sparse_truth_fit(rng, max_outer):
    """fit_moments of 400 noisy rows whose truth has 2 of 6 terms."""
    spec = DictionarySpec(state_dim=6, poly_degree=1, include_bias=False)
    coef = np.zeros((6, 1))
    coef[1, 0] = 8.0
    coef[4, 0] = -6.0
    samples = make_samples(rng, spec, coef, noise_std=0.3, n=400)
    _, x, y = stack_rows(samples, 1)
    psi = build_matrix(spec, x)
    return fit_moments(
        spec, NoiseModel([0.09]), initial_horseshoe(spec, 1), gram(psi), psi.T @ y, max_outer
    )


def test_adaptive_fit_recovers_sparse_truth(rng):
    post = sparse_truth_fit(rng, MAX_OUTER)
    means = post.mean_blocks()[0]
    assert abs(means[1] - 8.0) < 0.1
    assert abs(means[4] + 6.0) < 0.1
    nulls = np.abs(means[[0, 2, 3, 5]])
    assert nulls.max() < 0.02


@pytest.mark.parametrize("max_outer, refreshes", [(100, 47), (MAX_OUTER, MAX_OUTER)])
def test_adaptive_fit_stops_after_the_first_small_change(rng, monkeypatch, max_outer, refreshes):
    """fit_moments refreshes until one refresh moves no scale, local or
    global, by 1e-4 of its value before that refresh, or max_outer times:
    this fit settles after 47 refreshes and is cut at the cap of 20."""
    import sparsid.posterior

    starts, returned = [], []  # the scales each refresh starts from and returns
    refresh = sparsid.posterior.refresh_horseshoe

    def recorded(post, *args, **kwargs):
        starts.append(post.horseshoe)
        returned.append(refresh(post, *args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(sparsid.posterior, "refresh_horseshoe", recorded)
    post = sparse_truth_fit(rng, max_outer)
    # each refresh starts from the scales the one before it returned
    chain = [*starts[1:], post.horseshoe]
    assert len(chain) == len(returned) and all(a is b for a, b in zip(chain, returned))
    changes = [
        max(
            float(np.max(np.abs(new.local_scales - old.local_scales) / old.local_scales)),
            abs(new.global_scale - old.global_scale) / old.global_scale,
        )
        for old, new in zip(starts, returned)
    ]
    assert len(changes) == refreshes
    assert all(change >= 1e-4 for change in changes[:-1])
    assert (changes[-1] < 1e-4) == (refreshes < max_outer)
