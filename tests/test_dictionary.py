"""Polynomial feature dictionaries: column order, labels, evaluation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsid import (
    DictionarySpec,
    DimensionMismatch,
    NonFiniteInput,
    Sample,
    build_matrix,
    build_row,
)


def test_frozen_row_degree_two():
    spec = DictionarySpec(state_dim=2, poly_degree=2)
    row = build_row(spec, np.array([2.0, 3.0]))
    # 1, x1, x2, x1^2, x1*x2, x2^2 at (2, 3)
    np.testing.assert_array_equal(row, [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])


def test_labels_graded_then_lexicographic():
    spec = DictionarySpec(state_dim=2, poly_degree=2)
    assert spec.column_labels == ("1", "x1", "x2", "x1^2", "x1*x2", "x2^2")
    spec3 = DictionarySpec(state_dim=3, poly_degree=2, include_bias=False)
    assert spec3.column_labels == (
        "x1", "x2", "x3", "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2",
    )


def test_cross_terms_at_reference_point():
    spec = DictionarySpec(state_dim=3, poly_degree=2)
    row = build_row(spec, np.array([-8.0, 7.0, 27.0]))
    labels = list(spec.column_labels)
    assert row[labels.index("x1*x2")] == -56.0
    assert row[labels.index("x1*x3")] == -216.0
    assert row[labels.index("x3^2")] == 729.0


@pytest.mark.parametrize("n_x,degree", [(1, 1), (2, 3), (3, 2), (4, 4), (8, 1)])
def test_column_count_matches_binomial(n_x, degree):
    spec = DictionarySpec(state_dim=n_x, poly_degree=degree)
    assert spec.n_columns == math.comb(n_x + degree, degree)
    no_bias = DictionarySpec(state_dim=n_x, poly_degree=degree, include_bias=False)
    assert no_bias.n_columns == spec.n_columns - 1


def test_known_drift_columns_appended():
    spec = DictionarySpec(
        state_dim=2,
        poly_degree=1,
        known_drift=(("sin(x1)", lambda x: float(np.sin(x[0]))),),
    )
    assert spec.column_labels == ("1", "x1", "x2", "sin(x1)")
    row = build_row(spec, np.array([np.pi / 2.0, 0.0]))
    assert row[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DictionarySpec(
            state_dim=2, poly_degree=1, known_drift=((lambda x: 0.0, "bad"),)
        )


def test_column_scaling_is_elementwise():
    base = DictionarySpec(state_dim=2, poly_degree=1)
    scaled = DictionarySpec(state_dim=2, poly_degree=1, column_scaling=(2.0, 1.0, 0.5))
    x = np.array([3.0, 4.0])
    np.testing.assert_allclose(
        build_row(scaled, x), build_row(base, x) * np.array([2.0, 1.0, 0.5])
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        DictionarySpec(state_dim=0, poly_degree=1)
    with pytest.raises(ValueError):
        DictionarySpec(state_dim=2, poly_degree=-1)
    with pytest.raises(DimensionMismatch):
        DictionarySpec(state_dim=2, poly_degree=1, column_scaling=(1.0,))
    with pytest.raises(DimensionMismatch):
        DictionarySpec(state_dim=2, poly_degree=1, prior_scale_override=(1.0, 2.0))
    # degree 0 with a bias is a single constant column
    assert DictionarySpec(state_dim=3, poly_degree=0).column_labels == ("1",)


def test_sample_validation():
    with pytest.raises(NonFiniteInput):
        Sample(0.0, np.array([np.nan]), np.array([1.0]))
    with pytest.raises(NonFiniteInput):
        Sample(0.0, np.array([1.0]), np.array([np.inf]))
    s = Sample(1.5, [1.0, 2.0], [0.5])
    assert s.state.shape == (2,)


def test_build_row_dimension_check():
    spec = DictionarySpec(state_dim=3, poly_degree=1)
    with pytest.raises(DimensionMismatch):
        build_row(spec, np.array([1.0, 2.0]))


def test_build_matrix_stacks_rows(rng):
    spec = DictionarySpec(state_dim=3, poly_degree=2)
    states = rng.normal(size=(7, 3))
    mat = build_matrix(spec, states)
    assert mat.shape == (7, spec.n_columns)
    for i in range(7):
        np.testing.assert_array_equal(mat[i], build_row(spec, states[i]))


def reference_matrix(spec, states):
    """The dictionary evaluated one column at a time, each monomial as one
    product over its variables."""
    combos = [
        combo
        for degree in range(0 if spec.include_bias else 1, spec.poly_degree + 1)
        for combo in itertools.combinations_with_replacement(range(spec.state_dim), degree)
    ]
    cols = np.empty((len(states), spec.n_columns))
    for j, combo in enumerate(combos):
        cols[:, j] = np.prod(states[:, list(combo)], axis=1) if combo else 1.0
    for j, (_, fn) in enumerate(spec.known_drift):
        cols[:, len(combos) + j] = [float(fn(row)) for row in states]
    if spec.column_scaling is not None:
        cols *= np.asarray(spec.column_scaling)
    return cols


@st.composite
def specs_and_states(draw):
    n_x = draw(st.integers(1, 5))
    degree = draw(st.integers(0, 4))
    bias = draw(st.booleans()) or degree == 0
    drift = (("sin(x1)", lambda x: float(np.sin(x[0]))),) if draw(st.booleans()) else ()
    spec = DictionarySpec(n_x, degree, bias, drift)
    if draw(st.booleans()):
        scaling = draw(
            st.lists(st.floats(-4, 4), min_size=spec.n_columns, max_size=spec.n_columns)
        )
        spec = DictionarySpec(n_x, degree, bias, drift, column_scaling=tuple(scaling))
    states = draw(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.just(n_x)),
            elements=st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-30, -7.5]),
        )
    )
    return spec, states


@settings(max_examples=300)
@given(specs_and_states())
def test_build_matrix_matches_column_products_bitwise(case):
    spec, states = case
    got = build_matrix(spec, states)
    want = reference_matrix(spec, states)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(
    states=arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.just(2)),
        elements=st.floats(-3, 3),
    ),
    degree=st.integers(0, 3),
)
def test_gram_of_any_design_is_psd(states, degree):
    spec = DictionarySpec(state_dim=2, poly_degree=degree)
    mat = build_matrix(spec, states)
    gram = mat.T @ mat
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    assert eigs.min() >= -1e-8 * max(1.0, eigs.max())
