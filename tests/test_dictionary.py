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
)
from sparsid.dictionary import stack_rows


def test_frozen_row_degree_two():
    spec = DictionarySpec(state_dim=2, poly_degree=2)
    row = build_matrix(spec, np.array([[2.0, 3.0]]))[0]
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
    row = build_matrix(spec, np.array([[-8.0, 7.0, 27.0]]))[0]
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


def test_spec_validation():
    with pytest.raises(ValueError):
        DictionarySpec(state_dim=0, poly_degree=1)
    with pytest.raises(ValueError):
        DictionarySpec(state_dim=2, poly_degree=-1)
    # degree 0 with a bias is a single constant column
    assert DictionarySpec(state_dim=3, poly_degree=0).column_labels == ("1",)


def test_sample_validation():
    with pytest.raises(NonFiniteInput):
        Sample(0.0, np.array([np.nan]), np.array([1.0]))
    with pytest.raises(NonFiniteInput):
        Sample(0.0, np.array([1.0]), np.array([np.inf]))
    s = Sample(1.5, [1.0, 2.0], [0.5])
    assert s.state.shape == (2,)


def test_stack_rows_takes_arrays_or_samples():
    """A block of rows comes as (t, x, y) arrays or as Samples; either way
    it leaves as C-contiguous float arrays, checked for shapes (the count
    of outputs included) and for finite values."""
    block = np.arange(12.0).reshape(3, 4)
    rows = block[:, 0], block[:, 1:3], block[:, 3:]
    samples = [Sample(row[0], row[1:3], row[3:]) for row in block]
    for given in (rows, samples):
        stacked = stack_rows(given, 1)
        for got, ref in zip(stacked, rows):
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, ref)
    with pytest.raises(DimensionMismatch):
        stack_rows((block[:2, 0], block[:, 1:3], block[:, 3:]), 1)
    with pytest.raises(DimensionMismatch):
        stack_rows(rows, 2)
    for column in range(4):
        bad = block.copy()
        bad[1, column] = np.nan if column % 2 else np.inf
        with pytest.raises(NonFiniteInput):
            stack_rows((bad[:, 0], bad[:, 1:3], bad[:, 3:]), 1)


def test_build_row_dimension_check():
    spec = DictionarySpec(state_dim=3, poly_degree=1)
    with pytest.raises(DimensionMismatch):
        build_matrix(spec, np.array([[1.0, 2.0]]))


def test_build_matrix_stacks_rows(rng):
    spec = DictionarySpec(state_dim=3, poly_degree=2)
    states = rng.normal(size=(7, 3))
    mat = build_matrix(spec, states)
    assert mat.shape == (7, spec.n_columns)
    for i in range(7):
        np.testing.assert_array_equal(mat[i], build_matrix(spec, states[i][None])[0])


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
    return cols


@st.composite
def specs_and_states(draw):
    n_x = draw(st.integers(1, 5))
    degree = draw(st.integers(0, 4))
    bias = draw(st.booleans()) or degree == 0
    spec = DictionarySpec(n_x, degree, bias)
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
