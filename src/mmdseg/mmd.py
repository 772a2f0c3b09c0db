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
from .kernels import KernelSpec, _as_pair, _stacked_pass

__all__ = ["mmd2_terms", "mmd2_from_terms", "mmd2_grad_y", "simplex_weights"]

# A weight at or below this leaves the support when ``simplex_weights`` steps
# back. Weights are dimensionless and sum to 1, so the largest stays above it.
WEIGHT_FLOOR = 1e-12


def mmd2_terms(x, y, spec: KernelSpec, x_rows: np.ndarray,
               span=None) -> tuple[np.ndarray, np.ndarray]:
    """Kyy and the column means of Kxy, both blocks of one
    ``kernels._stacked_pass`` over ``[y; x]`` against ``y``; ``x_rows`` is
    ``row_stats(x, spec)``. With ``span``, ``x`` and ``y`` are written in
    the frames' span, as in ``mmd2_grad_y``. Kxy is the block
    ``kernel_matrix(x, y)`` returns, formed by the same pass."""
    if span is None:
        x, y = _as_pair(x, y, "mmd2_terms")
    k = _stacked_pass(x, y, spec, x_rows, span)
    if not np.isfinite(k).all():
        raise NumericError(f"kernel family {spec.family!r} produced non-finite values")
    m = y.shape[0]
    return k[:m], np.add.reduce(k[m:], axis=0) / (len(k) - m)  # mean(axis=0)'s arithmetic


def mmd2_from_terms(kxx_mean: float, kyy: np.ndarray, kxy_mean: np.ndarray,
                    weights: np.ndarray) -> float:
    """Squared MMD from its pieces: mean(Kxx), Kyy and the column means of Kxy."""
    return float(kxx_mean + weights @ kyy @ weights - 2.0 * (weights @ kxy_mean))


def mmd2_grad_y(x, y, spec: KernelSpec, weights: np.ndarray, x_rows: np.ndarray,
                span=None) -> np.ndarray:
    """Gradient of the squared MMD between the rows of ``x`` and the
    ``weights``-weighted rows of ``y`` with respect to every row of ``y``;
    ``x_rows`` is ``row_stats(x, spec)``, which the trainer forms once per
    video and takes the batch's columns of.

    Row r receives 2 w_r sum_a w_a grad_b k(y_a, y_r) (the self-pair counted
    once, its two symmetric contributions folded into the factor 2) minus
    (2/n) w_r sum_i grad_b k(x_i, y_r); uniform weights give the factors
    2/m^2 and 2/nm. Kernel gradients decompose as U * a + W * b, so both sums
    reduce to matrix products. The coefficients of both come from one
    ``kernels._stacked_pass`` with ``grad``, over the stacked (m + n) x m
    Gram products of ``[y; x]`` against ``y``: rows ``:m`` are the self
    block, rows ``m:`` the cross block.

    In the frames' span (``span = (frames, gram)``, ``gram = frames @
    frames.T``): ``y`` is ``[C | C @ gram]`` for the prototypes ``C @
    frames``, ``x`` holds the batch's indices into the frames, and the
    gradient D @ frames comes back as ``[D | D @ gram]``. It is the same
    combination of rows written over the frames: the cross term ``U^T x``
    is a scatter into the batch's columns of D and ``U^T gram[x]`` beside
    it. No product runs over the frames' own width.
    """
    if span is None:
        x, y = _as_pair(x, y, "mmd2_grad_y")
    m = y.shape[0]
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ShapeError(f"expected {m} weights, got shape {w.shape}")

    u, v = _stacked_pass(x, y, spec, x_rows, span, grad=True)
    n, u_cross = len(u) - m, u[m:].T  # the rows of x, and U^T of the cross block
    grad_self = u[:m].T @ (w[:, None] * y) + (w @ v[:m])[:, None] * y
    if span is None:
        cross = u_cross @ x
    else:  # D beside D @ gram, with gram = span[1]
        cross = np.zeros(y.shape)
        cross[:, x] = u_cross
        cross[:, len(span[1]):] = u_cross @ span[1][x]
    grad_cross = cross + np.add.reduce(v[m:], axis=0)[:, None] * y
    return w[:, None] * (2.0 * grad_self - (2.0 / n) * grad_cross)


def simplex_weights(kyy: np.ndarray, kxy_mean: np.ndarray,
                    start: np.ndarray | None = None) -> np.ndarray:
    """Weights on the probability simplex that minimize squared MMD.

    Minimizes the weight-dependent part w' Kyy w - 2 w' kxy_mean with a
    primal active-set method over a boolean support mask. It starts at the
    best single prototype, or at ``start`` when given: any nonnegative
    weights with a finite positive sum (a sum that overflows is rejected),
    taken divided by their sum, whose support (``start > 0``) is the first
    face. Each round solves the support face's KKT system, scaled to a unit
    diagonal, for its minimizer on {sum w = 1} (least squares if Kyy is
    singular). If that minimizer keeps every weight positive, the
    lowest-index prototype whose gradient most undercuts the support's
    multiplier (its mean gradient) enters. Otherwise the weights step
    back to the simplex boundary, dropping every prototype whose weight
    reaches zero, that is, ``WEIGHT_FLOOR`` or less. The entry test
    compares gradients, in kernel units, against a tolerance scaled to the
    kernel terms that the gradient sums at the current weights, so a huge
    self-kernel elsewhere does not hide a descent direction.

    Deterministic, and exact up to rounding while Kyy is well conditioned.
    A run that stops when no prototype can enter returns the last face
    minimizer, which depends only on ``(kyy, kxy_mean)`` and the support: a
    start that reaches the same final support returns the same bytes as
    the cold start, and a start on the optimal support (in training, the
    previous epoch's weights) needs one face solve instead of one per
    entering prototype. Near-duplicate prototypes (condition number beyond
    ~1e12) may split their mass, and then different starts may end on
    different supports, leaving the objective up to ~1e-7 times the largest
    kernel term above its minimum.
    """
    kyy = np.asarray(kyy, dtype=np.float64)
    kyy = 0.5 * (kyy + kyy.T)
    kxy_mean = np.asarray(kxy_mean, dtype=np.float64)
    m = kxy_mean.size
    abs_kyy, abs_kxy = np.abs(kyy), np.abs(kxy_mean)
    # Each face system is solved in w / scale, which gives it a unit diagonal:
    # a huge self-kernel then no longer swamps the other weights.
    diag = 2.0 * np.diag(kyy)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    scaled_kyy, scaled_kxy = 2.0 * kyy * (scale[:, None] * scale), 2.0 * kxy_mean * scale
    if start is None:
        w = np.zeros(m)
        w[int(np.argmin(np.diag(kyy) - 2.0 * kxy_mean))] = 1.0
    else:
        w = np.asarray(start, dtype=np.float64)
        if w.shape != (m,):
            raise ShapeError(f"expected {m} start weights, got shape {w.shape}")
        with np.errstate(over="ignore"):  # a sum that overflows is rejected, not warned about
            if not (0.0 < (total := np.add.reduce(w)) < np.inf and w.min() >= 0.0):
                raise ValueError(f"start must be nonnegative and finite with a positive sum, got {w}")
        w = w / total
    support = w > 0.0
    for _ in range(4 * m * m + 10):
        face = np.flatnonzero(support)
        k, face_scale = face.size, scale[face]
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = scaled_kyy[face[:, None], face]
        kkt[:k, k] = kkt[k, :k] = face_scale
        rhs = np.concatenate((scaled_kxy[face], (1.0,)))
        target = np.zeros(m)
        target[face] = face_scale * np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        target /= np.add.reduce(target)
        if target[face].min() > 0.0:
            w = target
            grad = 2.0 * (kyy @ w - kxy_mean)
            gap = np.where(support, np.inf, grad - np.add.reduce(grad[face]) / k)  # mean's arithmetic
            # Rounding in the gradient scales with the kernel terms it sums.
            tol = 1e-12 * max(1.0, float((abs_kyy @ w + abs_kxy).max()))
            if gap.min() >= -tol:
                break
            support[gap.argmin()] = True
        else:
            # Walk toward the face minimizer until a weight reaches zero.
            step = w - target
            shrinking = np.flatnonzero(support & (step > 0.0))
            if not shrinking.size:  # the new prototype cannot enter: w is optimal
                break
            t = (w[shrinking] / step[shrinking]).min()
            w = np.maximum(w - t * step, 0.0)
            support &= w > WEIGHT_FLOOR
            w[~support] = 0.0
            w /= np.add.reduce(w)
    return w
