"""Well-posedness classification and excitation checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsid import (
    DictionarySpec,
    build_matrix,
    check_pe,
    utility,
)
from sparsid.monitor import pe_from_gram, utility_from_differential

LINEAR = DictionarySpec(state_dim=2, poly_degree=1, include_bias=False)


def gram(spec, states):
    mat = build_matrix(spec, states)
    g = mat.T @ mat
    return 0.5 * (g + g.T)


def test_differential_is_new_minus_old_gram(rng):
    new = rng.normal(size=(4, 2))
    old = rng.normal(size=(3, 2))
    report = utility(LINEAR, new, old)
    diff = gram(LINEAR, new) - gram(LINEAR, old)
    np.testing.assert_allclose(report.kappas, np.linalg.eigvalsh(diff), atol=1e-12)
    np.testing.assert_allclose(report.differential_trace, np.trace(diff), atol=1e-12)


def test_scaled_window_is_informative(rng):
    base = rng.normal(size=(5, 2))
    # degree-1 features scale linearly, so doubling the states triples the Gram gap
    report = utility(LINEAR, 2.0 * base, base)
    assert report.classification == "informative"
    np.testing.assert_allclose(
        report.differential_trace, 3.0 * np.trace(gram(LINEAR, base)), rtol=1e-12
    )


def test_duplicated_window_is_redundant(rng):
    states = rng.normal(size=(6, 2))
    report = utility(LINEAR, states, states)
    assert report.classification == "redundant"
    assert abs(report.kappas).max() <= report.epsilon


def test_zero_information_batch_is_degrading(rng):
    old = rng.normal(size=(4, 2))
    new = np.zeros((4, 2))  # no bias column, so zero states carry nothing
    report = utility(LINEAR, new, old)
    assert report.classification == "degrading"
    assert report.kappas[0] < -report.epsilon


def test_gain_in_one_direction_and_loss_in_another_is_mixed():
    # one row gains x1, the forgotten row loses x2: kappas are [-1, 1]
    report = utility(LINEAR, [[1.0, 0.0]], [[0.0, 1.0]])
    assert report.classification == "mixed"
    np.testing.assert_allclose(report.kappas, [-1.0, 1.0], atol=1e-12)


def test_classification_invariant_to_batch_order(rng):
    new = rng.normal(size=(5, 2))
    old = rng.normal(size=(2, 2))
    a = utility(LINEAR, new, old)
    b = utility(LINEAR, new[::-1], old[::-1])
    assert a.classification == b.classification
    np.testing.assert_allclose(a.kappas, b.kappas, atol=1e-10)


def test_empty_old_block_reduces_to_new_gram(rng):
    new = rng.normal(size=(5, 2))
    report = utility(LINEAR, new, [])
    g = gram(LINEAR, new)
    np.testing.assert_allclose(report.kappas, np.linalg.eigvalsh(g), atol=1e-12)
    np.testing.assert_allclose(report.differential_trace, np.trace(g), atol=1e-12)


@given(scale=st.floats(0.1, 10.0))
def test_epsilon_tracks_trace_magnitude(scale):
    diff = scale * np.eye(3)
    (report,) = utility_from_differential(diff[None])
    assert report.epsilon == pytest.approx(1e-8 * (1.0 + 3.0 * scale / 3.0))
    assert report.classification == "informative"


def test_check_pe_thresholds(rng):
    states = rng.normal(size=(30, 2))
    g = gram(LINEAR, states) / 30.0
    eigs = np.linalg.eigvalsh(g)
    ok = check_pe(LINEAR, states, alpha1=eigs[0] * 0.999)
    assert ok.satisfied
    assert ok.min_avg_eig == pytest.approx(eigs[0], rel=1e-12)
    assert ok.max_avg_eig == pytest.approx(eigs[-1], rel=1e-12)
    bad = check_pe(LINEAR, states, alpha1=eigs[0] * 1.001)
    assert not bad.satisfied


def test_rank_deficient_window_fails_every_alpha(rng):
    direction = rng.normal(size=2)
    states = np.outer(rng.normal(size=(20,)), direction)  # all collinear
    for alpha1 in (1e-12, 1e-6, 1.0, 100.0):
        assert not check_pe(LINEAR, states, alpha1).satisfied


def test_check_pe_validation(rng):
    with pytest.raises(ValueError):
        check_pe(LINEAR, rng.normal(size=(4, 2)), alpha1=0.0)
    with pytest.raises(ValueError):
        check_pe(LINEAR, [], alpha1=1.0)


@given(
    n=st.integers(1, 12),
    k=st.integers(0, 6),
    seed=st.integers(0, 2**16),
    shape=st.sampled_from(["psd", "zero", "negative", "indefinite"]),
)
def test_stacked_reports_equal_one_by_one(n, k, seed, shape):
    """A stack gives, report for report, the bits a stack of one matrix
    gives: kappas, trace, epsilon, class; and the same PE eigenvalues."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, n + 2, n))
    grams = np.einsum("kri,krj->kij", rows, rows)
    stack = {
        "psd": grams,
        "zero": np.zeros((k, n, n)),
        "negative": -grams,
        "indefinite": grams - np.roll(grams, 1, axis=0) if k else grams,
    }[shape]
    reports = utility_from_differential(stack)
    assert len(reports) == k
    for one, many in zip((utility_from_differential(d[None])[0] for d in stack), reports):
        assert one.kappas.tolist() == many.kappas.tolist()
        assert (one.differential_trace, one.epsilon) == (
            many.differential_trace, many.epsilon,
        )
        assert one.classification == many.classification
    n_w = int(rng.integers(1, 50))  # one length for the whole stack
    pes = pe_from_gram(grams, n_w, alpha1=1e-3)
    assert len(pes) == k
    for g, many in zip(grams, pes):
        assert pe_from_gram(g[None], n_w, alpha1=1e-3) == [many]


def test_stacked_pe_validation():
    grams = np.stack([np.eye(2)] * 3)
    with pytest.raises(ValueError):
        pe_from_gram(grams, 0, alpha1=1.0)
    with pytest.raises(ValueError):
        pe_from_gram(grams, 4, alpha1=0.0)
