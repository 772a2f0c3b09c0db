"""Squared maximum mean discrepancy between a row set and a weighted row
set, its analytic gradient in the weighted rows, and the optimal weights.

The estimator is the biased V-statistic

    MMD^2(x, y, w) = mean(Kxx) + w' Kyy w - 2 mean_i (Kxy w)_i

with ``w`` on the probability simplex, always given (an untrained
approximation carries uniform ``1/m``). It includes self-pairs and is
therefore nonnegative for PSD kernels.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError
from .kernels import KernelSpec, _as_pair, _stacked_kernel

__all__ = ["mmd2_terms", "mmd2_from_terms", "mmd2_grad_y", "simplex_weights"]


def mmd2_terms(x: np.ndarray, y: np.ndarray, spec: KernelSpec,
               x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kyy and the column means of Kxy, from one stacked kernel pass over
    ``[y; x]`` against ``y``; ``x_rows`` is ``row_stats(x, spec)``."""
    x, y = _as_pair(x, y, "mmd2_terms")
    k = _stacked_kernel(x, y, spec, x_rows)
    if not np.all(np.isfinite(k)):
        raise NumericError(f"kernel family {spec.family!r} produced non-finite values")
    m = y.shape[0]
    return k[:m], k[m:].mean(axis=0)


def mmd2_from_terms(kxx_mean: float, kyy: np.ndarray, kxy_mean: np.ndarray,
                    weights: np.ndarray) -> float:
    """Squared MMD from its pieces: mean(Kxx), Kyy and the column means of Kxy."""
    return float(kxx_mean + weights @ kyy @ weights - 2.0 * (weights @ kxy_mean))


def mmd2_grad_y(x: np.ndarray, y: np.ndarray, spec: KernelSpec, weights: np.ndarray,
                x_rows: np.ndarray) -> np.ndarray:
    """Gradient of the squared MMD between the rows of ``x`` and the
    ``weights``-weighted rows of ``y`` with respect to every row of ``y``;
    ``x_rows`` is ``row_stats(x, spec)``, which the trainer forms once per
    video and takes the batch's columns of.

    Row r receives 2 w_r sum_a w_a grad_b k(y_a, y_r) (the self-pair counted
    once, its two symmetric contributions folded into the factor 2) minus
    (2/n) w_r sum_i grad_b k(x_i, y_r); uniform weights give the factors
    2/m^2 and 2/nm. Kernel gradients decompose as U * a + W * b, so both sums
    reduce to matrix products. The coefficients of both come from one kernel
    pass over the stacked (m + n) x m Gram products of ``[y; x]`` against
    ``y``: rows ``:m`` are the self block, rows ``m:`` the cross block.
    """
    x, y = _as_pair(x, y, "mmd2_grad_y")
    n, m = x.shape[0], y.shape[0]
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ShapeError(f"expected {m} weights, got shape {w.shape}")

    u, v = _stacked_kernel(x, y, spec, x_rows, grad=True)
    grad_self = u[:m].T @ (w[:, None] * y) + (w @ v[:m])[:, None] * y
    grad_cross = u[m:].T @ x + v[m:].sum(axis=0)[:, None] * y
    return w[:, None] * (2.0 * grad_self - (2.0 / n) * grad_cross)


def simplex_weights(kyy: np.ndarray, kxy_mean: np.ndarray) -> np.ndarray:
    """Weights on the probability simplex that minimize squared MMD.

    Minimizes the weight-dependent part w' Kyy w - 2 w' kxy_mean with a
    primal active-set method over a boolean support mask: start at the best
    single prototype, solve the support face's KKT system for its minimizer
    on {sum w = 1} (least squares if Kyy is singular), add the lowest-index
    prototype whose gradient most undercuts the support's multiplier, and
    step back to the simplex boundary (dropping every prototype whose weight
    reaches zero) whenever the face minimizer leaves it, that is, has a
    weight at or below zero. Deterministic, and exact up to rounding while
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
    support = w > 0.0
    for _ in range(4 * m * m + 10):
        k = int(support.sum())
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * kyy[np.ix_(support, support)]
        kkt[:k, k] = kkt[k, :k] = 1.0
        target = np.zeros(m)
        target[support] = np.linalg.lstsq(kkt, np.append(2.0 * kxy_mean[support], 1.0), rcond=None)[0][:k]
        target /= target.sum()
        if np.all(target[support] > 0.0):
            w = target
            grad = 2.0 * (kyy @ w - kxy_mean)
            gap = np.where(support, np.inf, grad - grad[support].mean())
            if gap.min() >= -tol:
                break
            support[np.argmin(gap)] = True
        else:
            # Walk toward the face minimizer until a weight reaches zero.
            step = w - target
            shrinking = support & (step > 0.0)
            if not shrinking.any():  # the new prototype cannot enter: w is optimal
                break
            t = np.min(w[shrinking] / step[shrinking])
            w = np.maximum(w - t * step, 0.0)
            support &= w > tol
            w[~support] = 0.0
            w /= w.sum()
    return w
