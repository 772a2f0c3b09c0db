"""Comparison baselines: uniform splitting and Lloyd k-means with k-means++
seeding. ``kmeans_centroids`` returns both the centroids and the labels of
one run: the labels are the k-means segmentation, and kernel-space
assignment of the centroids is ``learner.assign`` on an untrained
approximation (uniform weights) whose prototypes are the centroids.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .learner import Segmentation, uniform_spans
from .numerics import pairwise_sqdist

__all__ = ["uniform_segmentation", "kmeans_centroids"]

# Most Lloyd iterations; the loop stops earlier once the labels are stable.
KMEANS_ITERS = 100


def uniform_segmentation(n: int, m: int) -> Segmentation:
    """m contiguous near-equal spans, span j labeled j: the spans of
    ``uniform_spans``, so the first ``n % m`` are one frame longer."""
    return Segmentation.from_labels(np.repeat(np.arange(m), [e - s for s, e in uniform_spans(n, m)]))


def _kmeans_pp_seed(frames: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared distance."""
    n = frames.shape[0]
    chosen = [int(rng.integers(n))]
    sqd = pairwise_sqdist(frames, frames[chosen])[:, 0]
    while len(chosen) < m:
        total = sqd.sum()
        if total <= 0.0:
            # Remaining points coincide with a centroid; fill uniformly.
            remaining = np.setdiff1d(np.arange(n), chosen)
            idx = int(remaining[rng.integers(remaining.size)])
        else:
            idx = int(rng.choice(n, p=sqd / total))
        chosen.append(idx)
        sqd = np.minimum(sqd, pairwise_sqdist(frames, frames[[idx]])[:, 0])
    return frames[chosen].copy()


def kmeans_centroids(frames: np.ndarray, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm; returns (centroids, labels).

    It runs on the frames less their mean, which is added back to the
    returned centroids: the distances come from Gram products, which cancel
    when an offset common to every frame dominates their norms.
    Each empty cluster is re-seeded to a different point: the one farthest
    from its assigned centroid among the points whose cluster keeps another
    member, so no reseed empties a cluster (there are at least m points).
    The within-cluster sum of squares is checked to be finite and
    non-increasing at every iteration; a failed check is a ``NumericError``.
    """
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[0]
    if n < m:
        raise ValueError(f"kmeans needs at least {m} frames, got {n}")
    mean = frames.mean(axis=0)
    frames = frames - mean
    centroids = _kmeans_pp_seed(frames, m, rng)
    prev_obj = np.inf
    labels = None
    for _ in range(KMEANS_ITERS):
        dists = pairwise_sqdist(frames, centroids)
        new_labels = np.argmin(dists, axis=1)
        closest = dists[np.arange(n), new_labels]

        # Re-seed empty clusters before the update step, each from a different
        # frame of a cluster that keeps a member.
        counts = np.bincount(new_labels, minlength=m)
        for j in np.flatnonzero(counts == 0):
            far = int(np.argmax(np.where(counts[new_labels] > 1, closest, -1.0)))
            counts[new_labels[far]] -= 1
            counts[j] = 1
            centroids[j] = frames[far]
            new_labels[far] = j
            closest[far] = 0.0

        obj = float(closest.sum())
        if not (math.isfinite(obj) and obj <= prev_obj + 1e-9 * max(1.0, abs(prev_obj))):
            raise NumericError(f"k-means objective increased or is not finite: {prev_obj} -> {obj}")
        prev_obj = obj
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for j in range(m):
            centroids[j] = frames[labels == j].mean(axis=0)
    return centroids + mean, labels
