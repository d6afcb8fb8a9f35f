"""Blockwise sparse posterior against literal dense oracles.

The blockwise fit must agree with the unfactored joint posterior: stack the
per-output coefficient vectors output-major and form the full information
matrix as a Kronecker product of the output precision with the Gram matrix
plus the diagonal prior. The oracle below builds that dense system directly.
"""

import numpy as np
import pytest

from sparsid import (
    DictionarySpec,
    DimensionMismatch,
    HorseshoeState,
    NoiseModel,
    PosteriorState,
    Sample,
    batch_fit,
    batch_fit_adaptive,
    build_matrix,
    initial_horseshoe,
    refresh_horseshoe,
)
from sparsid.posterior import SCALE_CEIL, SCALE_FLOOR

from conftest import make_samples


def dense_oracle(psi, ys, variances, prior_precision):
    """Joint information-form posterior with no block shortcuts."""
    n_y = ys.shape[1]
    sigma_inv = np.diag(1.0 / variances)
    s = np.kron(sigma_inv, psi.T @ psi) + np.diag(prior_precision)
    b = (psi.T @ ys @ sigma_inv).ravel(order="F")
    return s, b, np.linalg.solve(s, b)


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
        s_ref, b_ref, mu_ref = dense_oracle(psi, ys, variances, hs.prior_precision)
        assert np.max(np.abs(post.info.info_matrix - s_ref)) < 1e-10
        assert np.max(np.abs(post.info.info_vector - b_ref)) < 1e-10
        assert np.max(np.abs(post.mean() - mu_ref)) < 1e-10


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
        np.array([np.eye(3) * 1e8]), np.zeros((1, 3)), sample_count=10,
    )
    hs = refresh_horseshoe(post)
    assert np.all(hs.local_scales <= 1e-5)
    assert np.all(hs.local_scales >= SCALE_FLOOR)
    product_sq = (hs.local_scales[:, 0] * hs.global_scale) ** 2
    np.testing.assert_allclose(product_sq, 1e-8 / 2.0, rtol=1e-2)


def test_refresh_is_idempotent_at_its_fixed_point(rng):
    post = sparse_posterior(rng)
    hs1 = refresh_horseshoe(post)
    again = PosteriorState(
        post.spec, post.noise, hs1, post.s_blocks, post.b_blocks,
        sample_count=post.sample_count,
    )
    hs2 = refresh_horseshoe(again)
    np.testing.assert_allclose(hs2.local_scales, hs1.local_scales, rtol=1e-6)
    assert hs2.global_scale == pytest.approx(hs1.global_scale, rel=1e-6)


def test_adaptive_fit_recovers_sparse_truth(rng):
    spec = DictionarySpec(state_dim=6, poly_degree=1, include_bias=False)
    coef = np.zeros((6, 1))
    coef[1, 0] = 8.0
    coef[4, 0] = -6.0
    samples = make_samples(rng, spec, coef, noise_std=0.3, n=400)
    post = batch_fit_adaptive(spec, samples, NoiseModel([0.09]), initial_horseshoe(spec, 1))
    means = post.mean_blocks()[0]
    assert abs(means[1] - 8.0) < 0.1
    assert abs(means[4] + 6.0) < 0.1
    nulls = np.abs(means[[0, 2, 3, 5]])
    assert nulls.max() < 0.02
