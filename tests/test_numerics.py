import math
import pickle

import numpy as np
import pytest

from fedmrl.numerics import (
    NonFiniteError,
    ShapeError,
    as_matrix,
    batch_cross_entropy,
    derive_rng,
    finite_diff_gradient,
    make_rng,
    relative_error,
)


def test_as_matrix_coerces_nested_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.flags["C_CONTIGUOUS"]
    assert m.shape == (2, 2)


def test_as_matrix_rejects_1d():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0, 3.0])


def test_as_matrix_shape_checks():
    with pytest.raises(ShapeError):
        as_matrix([[1.0, 2.0]], rows=2)
    with pytest.raises(ShapeError):
        as_matrix([[1.0, 2.0]], cols=3)


def test_as_matrix_passes_a_row_view_without_copying():
    # A weight in a row of a population buffer, an (out, in) view of it: C
    # order, so products and writes go to the buffer itself.
    buffer = np.arange(4 * 20, dtype=np.float64).reshape(4, 20)
    view = buffer[1, 4:16].reshape(3, 4)
    assert as_matrix(view, rows=3, cols=4) is view
    # Pickle restores a float64 dtype equal to numpy's own, not the same object.
    restored = pickle.loads(pickle.dumps(view))
    assert as_matrix(restored, rows=3, cols=4) is restored
    column_slice = buffer[:, :3]  # rows strided within the matrix
    copied = as_matrix(column_slice)
    assert copied is not column_slice and copied.flags.c_contiguous
    assert np.array_equal(copied, column_slice)


def one_row_cross_entropy(logits, label):
    """One sample's loss and 1 x L gradient through batch_cross_entropy."""
    losses, grads = batch_cross_entropy(logits, np.array([label]))
    return float(losses[0]), grads


def test_cross_entropy_uniform_two_class_is_ln2():
    loss, grad = one_row_cross_entropy(np.array([[0.0, 0.0]]), 0)
    assert math.isclose(loss, math.log(2.0), rel_tol=1e-12)
    assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-12)


def test_cross_entropy_saturated_case_stays_positive_and_tiny():
    loss, _ = one_row_cross_entropy(np.array([[10.0, -10.0]]), 0)
    assert 0.0 < loss < 1e-8


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        one_row_cross_entropy(np.array([[0.0, 0.0]]), 2)
    with pytest.raises(ValueError):
        one_row_cross_entropy(np.array([[0.0, 0.0]]), -1)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = make_rng(11)
    for _ in range(5):
        logits = rng.normal(size=(1, 6))
        label = int(rng.integers(0, 6))
        _, grad = one_row_cross_entropy(logits, label)
        num = finite_diff_gradient(
            lambda v: one_row_cross_entropy(v.reshape(1, 6), label)[0], logits.ravel(), h=1e-6
        )
        assert relative_error(grad.ravel(), num).max() <= 1e-6


def test_cross_entropy_gradient_rows_sum_to_zero():
    rng = make_rng(13)
    for _ in range(20):
        n_classes = int(rng.integers(2, 9))
        logits = rng.normal(scale=3.0, size=(1, n_classes))
        label = int(rng.integers(0, n_classes))
        _, grad = one_row_cross_entropy(logits, label)
        assert abs(grad.sum()) <= 1e-10


def test_batch_cross_entropy_agrees_with_single_sample():
    rng = make_rng(17)
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)
    losses, grads = batch_cross_entropy(logits, labels)
    for i in range(4):
        loss_i, grad_i = one_row_cross_entropy(logits[i : i + 1], int(labels[i]))
        assert math.isclose(losses[i], loss_i, rel_tol=1e-12)
        assert np.allclose(grads[i], grad_i[0], atol=1e-12)


def test_batch_cross_entropy_validates_labels():
    with pytest.raises(ShapeError):
        batch_cross_entropy(np.zeros((2, 3)), np.array([0]))
    with pytest.raises(ValueError):
        batch_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_finite_diff_gradient_on_quadratic():
    # f(x) = sum(x^2) has gradient 2x exactly up to O(h^2).
    x = np.array([1.0, -2.0, 0.5])
    num = finite_diff_gradient(lambda v: float((v**2).sum()), x)
    assert relative_error(num, 2.0 * x).max() <= 1e-8


def test_finite_diff_gradient_rejects_non_finite_objective():
    with pytest.raises(NonFiniteError):
        finite_diff_gradient(lambda v: float("nan"), np.array([1.0]))


def test_relative_error_uses_unit_floor():
    a = np.array([1e-9, 2.0])
    b = np.array([0.0, 1.0])
    err = relative_error(a, b)
    assert math.isclose(err[0], 1e-9, rel_tol=1e-9)
    assert math.isclose(err[1], 0.5, rel_tol=1e-12)


def test_seeded_rng_replays_bit_identical_streams():
    a = make_rng(123).normal(size=100)
    b = make_rng(123).normal(size=100)
    assert np.array_equal(a, b)


def test_derived_streams_are_distinct_but_reproducible():
    s1 = derive_rng(5, 1).normal(size=10)
    s1_again = derive_rng(5, 1).normal(size=10)
    s2 = derive_rng(5, 2).normal(size=10)
    assert np.array_equal(s1, s1_again)
    assert not np.array_equal(s1, s2)


def test_relative_error_rejects_mismatched_shapes():
    with pytest.raises(ShapeError) as raised:
        relative_error(np.zeros((2, 3)), np.zeros((3, 2)))
    assert type(raised.value) is ShapeError
    assert str(raised.value) == "shape mismatch: (2, 3) vs (3, 2)"
