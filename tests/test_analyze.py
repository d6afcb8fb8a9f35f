"""Scoring against ground truth, stability bounds, equation rendering."""

import csv

import numpy as np
import pytest

from sparsid import (
    DictionarySpec,
    NoiseModel,
    PosteriorState,
    TimestampMismatch,
    batch_fit,
    build_matrix,
    empirical_h,
    initial_horseshoe,
    render_equations,
    tracking_bound,
)

from sparsid.analyze import ErrorWriter, read_truth
from sparsid.simulate import lorenz_coefficients, lorenz_rhs

from conftest import make_samples


TWO_INPUTS = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)


def piecewise_truth():
    return read_truth(
        {
            "segments": [
                {"start_t": 0.0, "coeffs": [1.0, 0.0]},
                {"start_t": 10.0, "coeffs": [0.0, 2.0]},
            ]
        },
        TWO_INPUTS,
        1,
    )


# ----------------------------------------------------------------- scoring


def test_truth_lookup_by_segment():
    truth = piecewise_truth()
    np.testing.assert_array_equal(truth.at(0.0), [1.0, 0.0])
    np.testing.assert_array_equal(truth.at(9.999), [1.0, 0.0])
    np.testing.assert_array_equal(truth.at(10.0), [0.0, 2.0])
    np.testing.assert_array_equal(truth.at(1e9), [0.0, 2.0])
    with pytest.raises(TimestampMismatch):
        truth.at(-0.1)


def test_truth_requires_increasing_segments():
    with pytest.raises(ValueError):
        read_truth(
            {
                "segments": [
                    {"start_t": 5.0, "coeffs": [1.0, 0.0]},
                    {"start_t": 5.0, "coeffs": [2.0, 0.0]},
                ]
            },
            TWO_INPUTS,
            1,
        )


@pytest.mark.parametrize("degree,include_bias", [(2, True), (2, False), (3, True)])
def test_lorenz_truth_reproduces_the_generator(degree, include_bias):
    rng = np.random.default_rng(degree + include_bias)
    times = np.sort(rng.uniform(0.0, 500.0, size=20))
    k1, k3 = zip(*map(lorenz_coefficients, times))
    payload = {"case": "lorenz", "t": times.tolist(), "k1": k1, "k3": k3}
    spec = DictionarySpec(state_dim=3, poly_degree=degree, include_bias=include_bias)
    truth = read_truth(payload, spec, 3)
    for t in times:
        x = rng.normal(scale=10.0, size=3)
        beta = truth.at(t).reshape(3, spec.n_columns)
        np.testing.assert_allclose(
            beta @ build_matrix(spec, x[None])[0], lorenz_rhs(x, t), rtol=1e-12, atol=1e-9
        )
    np.testing.assert_array_equal(truth.at(times[3] + 1e-10), truth.at(times[3]))
    for t in (times[0] - 1e-3, times[3] + 1e-3, times[-1] + 1e-3):
        with pytest.raises(TimestampMismatch):
            truth.at(t)  # no sample there


def test_score_errors_small_case(tmp_path):
    writer = ErrorWriter(tmp_path / "errors.csv", piecewise_truth())
    writer.add(5.0, np.array([1.0, 0.5]))
    writer.add(7.0, [[1.0, 0.0]])  # a record's coef_mean, one list per output
    writer.add(12.0, np.array([0.0, 2.0]))
    writer.flush()
    with open(tmp_path / "errors.csv", newline="") as fh:
        values = np.array(list(csv.reader(fh))[1:], dtype=float)
    np.testing.assert_array_equal(values[:, 0], [5.0, 7.0, 12.0])
    np.testing.assert_allclose(values[:, 1], [0.5, 0.0, 0.0])
    np.testing.assert_allclose(values[:, 2:4], [[0.0, 0.5], [0.0, 0.0], [0.0, 0.0]])
    # the truth changed between the second and the third scored row
    assert values[:, 4].tolist() == [0, 0, 1]
    with pytest.raises(TimestampMismatch):
        writer.add(-1.0, np.zeros(2))


def test_error_csv_roundtrip(tmp_path):
    path = tmp_path / "errors.csv"
    writer = ErrorWriter(path, piecewise_truth())
    writer.flush()
    assert not path.exists()  # nothing scored, no file
    writer.add(5.0, np.array([1.0, 0.5]))
    writer.flush()
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,l2_error,abs_err_1,abs_err_2,truth_switch"
    assert len(lines) == 2
    writer.add(12.0, np.array([0.0, 2.0]))
    writer.flush()  # appends, with no second header
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[2] == "12.0,0.0,0.0,0.0,1"


# ------------------------------------------------------------------ bounds


def test_tracking_bound_closed_form():
    assert tracking_bound(0.1, 0.9, 2.0) == pytest.approx(2.0)
    assert tracking_bound(0.0, 0.5, 10.0) == 0.0
    with pytest.raises(ValueError):
        tracking_bound(0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        tracking_bound(-0.1, 0.9, 1.0)


def test_empirical_h_from_scaled_snapshots(rng):
    spec = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)
    samples = make_samples(rng, spec, np.array([[1.0], [1.0]]), 0.1, n=20)
    noise = NoiseModel([1.0])
    hs = initial_horseshoe(spec, 1)
    post = batch_fit(spec, samples, noise, hs)
    half = PosteriorState(spec, noise, hs, 0.5 * post.s_blocks, 0.5 * post.b_blocks)
    # S halves from one snapshot to the next: solve(S_next, S_prev) = 2I
    assert empirical_h([post, half]) == pytest.approx(2.0, rel=1e-9)


# -------------------------------------------------------------- rendering


def make_posterior_with_means(means, labels_spec, stds=1e-4):
    """Posterior whose mean is exactly `means` and whose stds are tiny."""
    means = np.atleast_2d(means)
    n_y, n_p = means.shape
    precision = 1.0 / stds**2
    s_blocks = np.stack([np.eye(n_p) * precision for _ in range(n_y)])
    b_blocks = means * precision
    return PosteriorState(
        labels_spec,
        NoiseModel([1.0] * n_y),
        initial_horseshoe(labels_spec, n_y),
        s_blocks,
        b_blocks,
    )


def test_render_equations_frozen_format():
    spec = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)
    post = make_posterior_with_means(np.array([[-10.0, 10.0]]), spec)
    lines = render_equations(post, threshold=0.1)
    assert lines == ["dx1/dt = -10.00·x1 ± 0.0001000 + 10.00·x2 ± 0.0001000"]


def test_render_equations_threshold_and_zero():
    spec = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)
    post = make_posterior_with_means(np.array([[0.05, -0.02]]), spec)
    assert render_equations(post, threshold=0.1) == ["dx1/dt = 0"]


def test_render_equations_includes_uncertainty():
    spec = DictionarySpec(state_dim=1, poly_degree=1, include_bias=False)
    post = make_posterior_with_means(np.array([[2.5]]), spec, stds=0.125)
    (line,) = render_equations(post, threshold=0.1)
    assert line == "dx1/dt = 2.500·x1 ± 0.1250"


def test_render_orders_terms_by_dictionary_position():
    spec = DictionarySpec(state_dim=2, poly_degree=2)
    means = np.zeros((1, spec.n_columns))
    means[0, spec.column_labels.index("x2^2")] = 1.0
    means[0, spec.column_labels.index("1")] = -3.0
    post = make_posterior_with_means(means, spec)
    (line,) = render_equations(post, threshold=0.5)
    # bias column renders before the quadratic column, whatever the signs
    assert line == "dx1/dt = -3.000·1 ± 0.0001000 + 1.000·x2^2 ± 0.0001000"


def test_render_multiple_outputs(rng):
    spec = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)
    post = make_posterior_with_means(np.array([[1.0, 0.0], [0.0, 1234.0]]), spec)
    lines = render_equations(post, threshold=0.5)
    assert lines[0] == "dx1/dt = 1.000·x1 ± 0.0001000"
    assert lines[1] == "dx2/dt = 1234·x2 ± 0.0001000"
