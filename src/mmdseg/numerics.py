"""Dense numeric substrate: seeded RNG streams, pairwise distances, medians,
and a central-difference gradient checker used as the gradient oracle
throughout the test suite.

Matrices are plain float64 ``numpy.ndarray`` values; every public operation
returns finite entries or raises.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "make_rng",
    "pairwise_sqdist",
    "sqdist_from_gram",
    "median",
    "finite_diff_grad",
]


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for ``seed``, optionally on a named substream.

    Extra integers select independent substreams, so the learner, the batcher
    and the synthetic generator can all draw from one user-facing seed without
    interfering: ``make_rng(7, 2)`` and ``make_rng(7, 3)`` never overlap.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, stream)])))


def pairwise_sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all rows of ``a`` and ``b``.

    Returns D with D[i, j] = ||a_i - b_j||^2, clipped at zero so rounding
    never produces small negatives. When ``a`` and ``b`` are the same data
    the diagonal is exactly zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"pairwise_sqdist: incompatible shapes {a.shape} and {b.shape}")
    return sqdist_from_gram(a, b, a @ b.T, np.sum(a * a, axis=1), np.sum(b * b, axis=1))


def sqdist_from_gram(a: np.ndarray, b: np.ndarray, gram: np.ndarray,
                     sq_a: np.ndarray, sq_b: np.ndarray) -> np.ndarray:
    """``pairwise_sqdist(a, b)`` from the Gram product ``a @ b.T`` and the
    squared row norms of ``a`` and ``b``, for callers that already hold them.
    """
    d = sq_a[:, None] + sq_b[None, :] - 2.0 * gram
    np.maximum(d, 0.0, out=d)
    if a.shape == b.shape and (a is b or np.array_equal(a, b)):
        np.fill_diagonal(d, 0.0)
    return d


def median(values) -> float:
    """Lower median: for even lengths the smaller of the two middle elements.

    Always returns an element of the input, which keeps data-derived scales
    deterministic across platforms.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("median of an empty sequence")
    if not np.all(np.isfinite(v)):
        raise NumericError("median: input contains non-finite values")
    k = (v.size - 1) // 2
    return float(np.partition(v, k)[k])


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    The universal gradient oracle: every hand-derived analytic gradient in
    this package is tested against it.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"finite_diff_grad: non-finite evaluation at index {idx}")
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad
