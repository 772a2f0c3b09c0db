"""Dense numeric substrate: seeded RNG streams, pairwise distances and
medians.

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
]


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for ``seed``, optionally on a named substream.

    Extra integers select independent substreams, so the learner, the batcher
    and the synthetic generator can all draw from one user-facing seed without
    interfering: ``make_rng(7, 2)`` and ``make_rng(7, 3)`` never overlap.
    The seed must be nonnegative.
    """
    if int(seed) < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
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
    same = a is b or np.array_equal(a, b)
    return sqdist_from_gram(a @ b.T, np.sum(a * a, axis=1), np.sum(b * b, axis=1),
                            b.shape[0] if same else 0)


def sqdist_from_gram(gram: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray,
                     n_self: int, rows: int | None = None) -> np.ndarray:
    """``pairwise_sqdist(a, b)`` from the Gram product ``a @ b.T`` and the
    squared row norms of ``a`` and ``b``, for callers that already hold them.

    The leading ``n_self`` rows of ``a`` are the rows of ``b``, in order and
    one or more times over (0 when they are not): each such block of
    ``len(b)`` rows gets an exactly zero diagonal. ``2 * gram`` is subtracted
    ``rows`` rows at a time (all at once without it), so that with ``rows``
    no temporary of the product's size is formed.
    """
    d = sq_a[:, None] + sq_b[None, :]
    rows = rows or max(len(d), 1)
    for lo in range(0, len(d), rows):
        d[lo:lo + rows] -= 2.0 * gram[lo:lo + rows]
    np.maximum(d, 0.0, out=d)
    for lo in range(0, n_self, d.shape[1]):  # a strided store on each block's diagonal
        d[lo:min(lo + d.shape[1], n_self)].flat[::d.shape[1] + 1] = 0.0
    return d


def median(values, where: np.ndarray | None = None) -> float:
    """Lower median: for even lengths the smaller of the two middle elements.
    With a boolean mask ``where`` of the shape of ``values``, the median of
    the entries it selects.

    Always returns an element of the input, which keeps data-derived scales
    deterministic across platforms. It never writes to ``values``: it
    partitions one copy of the entries it reads, in place.
    """
    v = np.asarray(values, dtype=np.float64)
    v = v.flatten() if where is None else v[where]
    if v.size == 0:
        raise ValueError("median of an empty sequence")
    if not np.all(np.isfinite(v)):
        raise NumericError("median: input contains non-finite values")
    k = (v.size - 1) // 2
    v.partition(k)
    return float(v[k])
