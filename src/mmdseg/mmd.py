"""Squared maximum mean discrepancy between a row set and a weighted row
set, its analytic gradient in the weighted rows, the optimal weights, and the
shuffled batch plan used for training.

The estimator is the biased V-statistic

    mmd2(x, y, w) = mean(Kxx) + w' Kyy w - 2 mean_i (Kxy w)_i

with ``w`` on the probability simplex (uniform ``1/m`` unless given). It
includes self-pairs and is therefore nonnegative for PSD kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .kernels import KernelSpec, _kernel, kernel_matrix

__all__ = ["MmdBatchPlan", "mmd2", "mmd2_from_terms", "mmd2_grad_y", "simplex_weights", "make_batch_plan"]


def _as_pair(x, y, who: str):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"{who}: dimension mismatch {x.shape[1]} vs {y.shape[1]}")
    return x, y


def _as_weights(weights, m: int) -> np.ndarray:
    if weights is None:
        return np.full(m, 1.0 / m)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (m,):
        raise ShapeError(f"expected {m} weights, got shape {weights.shape}")
    return weights


def mmd2_from_terms(kxx_mean: float, kyy: np.ndarray, kxy_mean: np.ndarray,
                    weights: np.ndarray) -> float:
    """Squared MMD from its pieces: mean(Kxx), Kyy and the column means of Kxy."""
    return float(kxx_mean + weights @ kyy @ weights - 2.0 * (weights @ kxy_mean))


def mmd2(x: np.ndarray, y: np.ndarray, spec: KernelSpec, weights=None) -> float:
    """Squared MMD between the rows of ``x`` and the ``weights``-weighted rows of ``y``."""
    x, y = _as_pair(x, y, "mmd2")
    return mmd2_from_terms(kernel_matrix(x, x, spec).mean(),
                           kernel_matrix(y, y, spec),
                           kernel_matrix(x, y, spec).mean(axis=0),
                           _as_weights(weights, y.shape[0]))


def mmd2_grad_y(x: np.ndarray, y: np.ndarray, spec: KernelSpec, weights=None) -> np.ndarray:
    """Gradient of ``mmd2(x, y, weights)`` with respect to every row of ``y``.

    Row r receives 2 w_r sum_a w_a grad_b k(y_a, y_r) (the self-pair counted
    once, its two symmetric contributions folded into the factor 2) minus
    (2/n) w_r sum_i grad_b k(x_i, y_r); uniform weights give the factors
    2/m^2 and 2/nm. Kernel gradients decompose as U * a + W * b, so both sums
    reduce to matrix products.
    """
    x, y = _as_pair(x, y, "mmd2_grad_y")
    n = x.shape[0]
    w = _as_weights(weights, y.shape[0])

    _, u_yy, w_yy = _kernel(y, y, spec, grad=True)
    _, u_xy, w_xy = _kernel(x, y, spec, grad=True)
    grad_self = u_yy.T @ (w[:, None] * y) + (w @ w_yy)[:, None] * y
    grad_cross = u_xy.T @ x + w_xy.sum(axis=0)[:, None] * y
    return w[:, None] * (2.0 * grad_self - (2.0 / n) * grad_cross)


def _simplex_face_minimizer(kyy: np.ndarray, kxy_mean: np.ndarray, support: list[int]) -> np.ndarray:
    """Minimizer of w' Kyy w - 2 w' kxy_mean on the affine hull {sum w = 1}
    of the face ``support`` (KKT system; least squares if Kyy is singular)."""
    k = len(support)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * kyy[np.ix_(support, support)]
    kkt[:k, k] = kkt[k, :k] = 1.0
    rhs = np.append(2.0 * kxy_mean[support], 1.0)
    w = np.zeros(kxy_mean.size)
    w[support] = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
    return w / w.sum()


def simplex_weights(kyy: np.ndarray, kxy_mean: np.ndarray) -> np.ndarray:
    """Weights on the probability simplex that minimize squared MMD.

    Minimizes the weight-dependent part w' Kyy w - 2 w' kxy_mean with a
    primal active-set method: start at the best single prototype, add the
    prototype whose gradient most undercuts the support's multiplier, and
    step back to the simplex boundary (dropping a prototype) whenever the
    face minimizer leaves it. Deterministic, and exact up to rounding while
    Kyy is well conditioned. Near-duplicate prototypes (condition number
    beyond ~1e12) may split their mass, leaving the objective up to ~1e-7
    (relative) above its minimum.
    """
    kyy = np.asarray(kyy, dtype=np.float64)
    kyy = 0.5 * (kyy + kyy.T)
    kxy_mean = np.asarray(kxy_mean, dtype=np.float64)
    m = kxy_mean.size
    tol = 1e-12 * max(1.0, float(np.max(np.abs(kyy))), float(np.max(np.abs(kxy_mean))))
    first = int(np.argmin(np.diag(kyy) - 2.0 * kxy_mean))
    w = np.zeros(m)
    w[first] = 1.0
    support = [first]
    for _ in range(4 * m * m + 10):
        target = _simplex_face_minimizer(kyy, kxy_mean, support)
        if np.all(target[support] > tol):
            w = target
            grad = 2.0 * (kyy @ w - kxy_mean)
            outside = [j for j in range(m) if j not in support]
            if not outside:
                break
            gap = grad[outside] - grad[support].mean()
            if gap.min() >= -tol:
                break
            support = sorted(support + [outside[int(np.argmin(gap))]])
        else:
            # Walk toward the face minimizer until a weight reaches zero.
            step = w - target
            shrinking = [i for i in support if step[i] > 0.0]
            if not shrinking:  # the new prototype cannot enter: w is optimal
                break
            t = min(w[i] / step[i] for i in shrinking)
            w = np.maximum(w - t * step, 0.0)
            support = [i for i in support if w[i] > tol]
            w[[i for i in range(m) if i not in support]] = 0.0
            w /= w.sum()
    return w


@dataclass(frozen=True)
class MmdBatchPlan:
    """One epoch of shuffled batches over ``n`` frames.

    ``batch_size`` is floor(n / m) clamped to at least 1; the final short
    batch is kept.
    """

    batch_size: int
    epoch_permutation: np.ndarray

    def batches(self):
        n = self.epoch_permutation.size
        for lo in range(0, n, self.batch_size):
            yield self.epoch_permutation[lo:lo + self.batch_size]


def make_batch_plan(n: int, m: int, rng: np.random.Generator) -> MmdBatchPlan:
    """Fresh shuffled batch plan for one epoch: batches of size ~ n/m."""
    if n < 1 or m < 1:
        raise ValueError("make_batch_plan needs n >= 1 and m >= 1")
    return MmdBatchPlan(batch_size=max(1, n // m), epoch_permutation=rng.permutation(n))
