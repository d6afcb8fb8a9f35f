"""Benchmark generators: sparse regression streams and the driven Lorenz
system with drifting coefficients."""

import numpy as np
import pytest

from sparsid import (
    LorenzConfig,
    NonFiniteState,
    SparseRegressionConfig,
    gen_sparse_regression,
    lorenz_coefficients,
    lorenz_rhs,
    simulate_lorenz,
)
from sparsid.simulate import (
    case1_truth_payload,
    lorenz_truth_payload,
    write_csv,
)


# ------------------------------------------------------- sparse regression


def test_sparse_regression_shapes_and_ranges():
    cfg = SparseRegressionConfig(m=50, n_samples=600, seed=11)
    x, y, beta = gen_sparse_regression(cfg)
    assert x.shape == (600, 50)
    assert y.shape == (600, 1)
    assert beta.shape == (600, 50)
    assert x.min() > -0.5 and x.max() <= 0.5
    active = beta[0] != 0.0
    assert active.sum() == 15  # 30% of 50
    values = np.abs(beta[0][active])
    assert values.min() > 5.0 and values.max() <= 10.0


def test_sparse_regression_is_deterministic():
    cfg = SparseRegressionConfig(m=20, n_samples=100, seed=3)
    a = gen_sparse_regression(cfg)
    b = gen_sparse_regression(cfg)
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left, right)


def test_noise_level_does_not_reshuffle_coefficients():
    quiet = SparseRegressionConfig(m=20, n_samples=50, noise_variance=1e-8, seed=5)
    loud = SparseRegressionConfig(m=20, n_samples=50, noise_variance=5.0, seed=5)
    _, _, beta_q = gen_sparse_regression(quiet)
    x_q, _, _ = gen_sparse_regression(quiet)
    x_l, _, beta_l = gen_sparse_regression(loud)
    np.testing.assert_array_equal(beta_q, beta_l)
    np.testing.assert_array_equal(x_q, x_l)


def test_switch_redraws_coefficients():
    cfg = SparseRegressionConfig(m=30, n_samples=100, switch_at=60, seed=9)
    _, _, beta = gen_sparse_regression(cfg)
    np.testing.assert_array_equal(beta[0], beta[59])
    np.testing.assert_array_equal(beta[60], beta[99])
    assert not np.array_equal(beta[59], beta[60])
    payload = case1_truth_payload(cfg, beta)
    assert payload["case"] == "case1"
    assert len(payload["segments"]) == 2
    assert payload["segments"][1]["start_t"] == 60.0


def test_observations_follow_the_regression():
    cfg = SparseRegressionConfig(m=10, n_samples=200, noise_variance=1e-12, seed=2)
    x, y, beta = gen_sparse_regression(cfg)
    np.testing.assert_allclose(y[:, 0], np.sum(x * beta, axis=1), atol=1e-4)


def test_sparse_regression_validation():
    with pytest.raises(ValueError):
        SparseRegressionConfig(m=0, n_samples=10)
    with pytest.raises(ValueError):
        SparseRegressionConfig(m=5, n_samples=10, nonzero_fraction=1.5)
    with pytest.raises(ValueError):
        SparseRegressionConfig(m=5, n_samples=10, noise_variance=-1.0)
    with pytest.raises(ValueError):
        SparseRegressionConfig(m=5, n_samples=10, switch_at=10)


# ------------------------------------------------------------------ Lorenz


def test_drifting_coefficients():
    k1, k3 = lorenz_coefficients(0.0)
    assert k1 == pytest.approx(10.0)
    assert k3 == pytest.approx(3.0)
    k1, k3 = lorenz_coefficients(100.0)
    assert k1 == pytest.approx(0.5 * np.sin(10.0) + 10.0)
    assert k3 == pytest.approx(np.arctan(10.0) + 3.0)


def test_rhs_at_reference_point():
    rhs = lorenz_rhs(np.array([-8.0, 7.0, 27.0]), 0.0)
    # k1=10, k3=3: (10*(7+8), -8*(28-27)-7, -8*7-3*27)
    np.testing.assert_allclose(rhs, [150.0, -15.0, -137.0])


def test_simulation_length_and_determinism():
    cfg = LorenzConfig(dt=0.01, t_end=2.0, seed=4)
    a = simulate_lorenz(cfg)
    b = simulate_lorenz(cfg)
    times, states, obs = a
    assert times.shape == (201,) and states.shape == obs.shape == (201, 3)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(2.0)
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left, right)


def test_derivative_observations_equal_rhs_plus_noise():
    cfg = LorenzConfig(dt=0.01, t_end=1.0, noise_std=0.0, seed=0)
    times, states, obs = simulate_lorenz(cfg)
    for t, x, y in zip(times[::20], states[::20], obs[::20]):
        np.testing.assert_allclose(y, lorenz_rhs(x, t), atol=1e-10)
    noisy = simulate_lorenz(LorenzConfig(dt=0.01, t_end=1.0, noise_std=1.0, seed=0))
    gaps = np.array([y - lorenz_rhs(x, t) for t, x, y in zip(*noisy)])
    assert 0.5 < gaps.std() < 1.5  # injected unit noise


def test_integrator_is_fourth_order():
    # Richardson: halving dt must cut the endpoint error by roughly 2^4.
    # Chaotic error growth pushes the observed ratio somewhat above 16;
    # a lower-order scheme would sit near 2, 4, or 8.
    def endpoint(dt):
        cfg = LorenzConfig(dt=dt, t_end=1.0, noise_std=0.0, seed=0)
        return simulate_lorenz(cfg)[1][-1]

    ref = endpoint(0.0005)
    errs = [np.linalg.norm(endpoint(dt) - ref) for dt in (0.008, 0.004, 0.002)]
    assert 12.0 < errs[0] / errs[1] < 40.0
    assert 12.0 < errs[1] / errs[2] < 40.0


def test_divergent_trajectory_raises():
    with pytest.raises(NonFiniteState):
        simulate_lorenz(LorenzConfig(dt=0.01, t_end=5.0, x0=(1e150, 0.0, 0.0)))


def test_lorenz_truth_payload_tracks_formulas():
    cfg = LorenzConfig(dt=0.5, t_end=1.0)
    payload = lorenz_truth_payload(cfg)
    assert payload["case"] == "lorenz"
    np.testing.assert_allclose(payload["t"], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(payload["k1"][0], 10.0)
    np.testing.assert_allclose(payload["k3"][2], np.arctan(0.1) + 3.0)


# --------------------------------------------------------------------- io


def test_csv_roundtrip_preserves_floats(tmp_path):
    times = np.array([0.0, 0.1])
    states = np.array([[1.0 / 3.0, -2.0], [0.125, 9.5]])
    obs = np.array([[np.pi], [-0.7]])
    path = tmp_path / "data.csv"
    write_csv(path, times, states, obs)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "t,x1,x2,y1"
    cells = rows[1].split(",")
    assert float(cells[1]) == 1.0 / 3.0
    assert float(cells[3]) == np.pi
