"""Deterministic dense numerics shared by every other module.

A "matrix" throughout the package is a plain 2-D float64 C-order ndarray
with one row per sample.  Only the private kernels that a cohort's plan
runs (_cross_entropy, _transposed) also take a stack of them, a 3-D
array whose leading axis runs over the clients of the cohort.
Randomness always flows through explicitly seeded PCG64 generators, so a
run is fully determined by its seed: the same seed replays bit-identical
values on any machine with the same numpy version.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "as_matrix",
    "batch_cross_entropy",
    "finite_diff_gradient",
    "relative_error",
    "make_rng",
    "derive_rng",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A value that must be finite came out NaN or infinite."""


_FLOAT64 = np.dtype(np.float64)


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a 2-D float64 C-order array, optionally checking its shape.

    Accepts nested sequences or ndarrays.  1-D input is rejected rather
    than silently promoted; callers must be explicit about row/column
    orientation.  A C-order float64 ndarray comes back as is, so a row
    view of a buffer passes uncopied; its dtype compares by value, as
    pickle restores an equal float64 dtype, not numpy's own.  Anything
    else is copied.
    """
    m = values
    if type(m) is not np.ndarray or m.dtype != _FLOAT64 or not m.flags.c_contiguous:
        m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got {m.ndim}-D data of shape {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise ShapeError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ShapeError(f"expected {cols} columns, got {m.shape[1]}")
    return m


def _transposed(m: np.ndarray) -> np.ndarray:
    """A C-order copy of m with its last two axes swapped (each matrix of a stack transposed)."""
    return m.swapaxes(-1, -2).copy()


def batch_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross-entropy losses and gradients for a batch: the checked
    entry to the kernel that training runs.

    Returns (losses, grads) with losses of shape (n,) and grads of shape
    (n, L); grads are per-sample, not averaged, so callers own the batch
    reduction.  Losses come from max-shifted logits, so a saturated row
    gives a tiny positive loss, not log(1) = 0.
    """
    m = as_matrix(logits)
    y = _labels(labels, m.shape[0], m.shape[1])
    return _cross_entropy(m, np.arange(y.size) * m.shape[1] + y)


def _labels(labels, rows: int, n_classes: int) -> np.ndarray:
    """Labels as int64 of shape (rows,), each in [0, n_classes)."""
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.size != rows:
        raise ShapeError(f"{rows} logit rows but {y.size} labels")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return y


def _cross_entropy(m: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """batch_cross_entropy on already-checked logits, the labels given as the flat
    index of each row's label entry (row * L + label).

    m may be a stack of logit matrices: every row is its own sample, so the
    stack is flattened to rows, and the losses come back in m's leading
    shape.  The gradient is the exponentials of the loss, divided in place.
    """
    flat = m.reshape(-1, m.shape[-1])
    shifted = flat - np.maximum.reduce(flat, axis=1, keepdims=True)
    picked = shifted.take(index)
    e = np.exp(shifted, out=shifted)
    z = np.add.reduce(e, axis=1, keepdims=True)
    losses = np.log(z[:, 0]) - picked
    grads = np.divide(e, z, out=e)
    grads.reshape(-1)[index] -= 1.0
    return losses.reshape(m.shape[:-1]), grads.reshape(m.shape)


def finite_diff_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a flat vector.

    Used as the independent oracle against hand-derived backprop.  Raises
    NonFiniteError if any probe of f returns a non-finite value.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    grad = np.empty_like(x)
    for i in range(x.size):
        bumped = x.copy()
        bumped[i] = x[i] + h
        hi = f(bumped)
        bumped[i] = x[i] - h
        lo = f(bumped)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NonFiniteError(f"objective returned non-finite value at coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise |a - b| / max(1, |a|, |b|), the gradient-check metric."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) / scale


def make_rng(seed: int) -> np.random.Generator:
    """Root PCG64 generator for a run."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent named substream of a seed.

    Streams are identified by small integer tags; (seed, tags...) feeds a
    SeedSequence, so distinct tag paths give statistically independent
    generators while identical paths replay identical values.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))
