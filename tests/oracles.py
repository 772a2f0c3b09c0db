"""Independent reference implementations the tests check against.

Everything here is deliberately written the slow, obvious way (scalar loops,
brute-force enumeration, explicit finite networks) and never calls the
vectorized library paths it is used to verify.
"""

import itertools
import math

import numpy as np


def naive_pairwise_sqdist(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += (a[i, k] - b[j, k]) ** 2
            out[i, j] = acc
    return out


def scalar_kernel_value(a, b, spec):
    """One kernel evaluation from plain scalar math, any family."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()

    def gauss():
        sq = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))
        return math.exp(-sq / spec.lengthscale**2)

    def ntk_parts(u, v):
        # The network sees its inputs multiplied by the input scale.
        u = [spec.input_scale * float(x) for x in u]
        v = [spec.input_scale * float(y) for y in v]
        d = len(u)
        s = spec.sigma_w_sq / d
        k_uv = s * sum(float(x) * float(y) for x, y in zip(u, v)) + spec.sigma_b_sq
        k_uu = s * sum(float(x) ** 2 for x in u) + spec.sigma_b_sq
        k_vv = s * sum(float(y) ** 2 for y in v) + spec.sigma_b_sq
        p = math.sqrt(k_uu * k_vv)
        c = min(max(k_uv / p, -1.0 + spec.clamp_eps), 1.0 - spec.clamp_eps)
        theta = math.acos(c)
        nngp = (spec.sigma_w_sq / (2 * math.pi)) * p * (math.sin(theta) + (math.pi - theta) * c) \
            + spec.sigma_b_sq
        ntk = nngp + k_uv * spec.sigma_w_sq * (math.pi - theta) / (2 * math.pi)
        return nngp, ntk

    def unit(u):
        n = math.sqrt(sum(float(x) ** 2 for x in u))
        return [float(x) / n for x in u]

    if spec.family == "gauss":
        return gauss()
    if spec.family == "nngp":
        return ntk_parts(a, b)[0]
    if spec.family == "ntk":
        return ntk_parts(a, b)[1]
    if spec.family == "ntk_sphere":
        return ntk_parts(unit(a), unit(b))[1]
    if spec.family == "gauss_ntk":
        return spec.alpha * ntk_parts(a, b)[1] * gauss()
    if spec.family == "gauss_ntk_sphere":
        return spec.alpha * ntk_parts(unit(a), unit(b))[1] * gauss()
    raise ValueError(spec.family)


def mmd2_triple_loop(x, y, spec, weights=None):
    """Squared MMD straight from its definition, one kernel value at a time.

    ``weights`` are the masses of the rows of ``y`` (uniform when omitted).
    """
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    n, m = x.shape[0], y.shape[0]
    w = [1.0 / m] * m if weights is None else [float(v) for v in weights]
    xx = sum(scalar_kernel_value(x[i], x[j], spec) for i in range(n) for j in range(n))
    yy = sum(w[i] * w[j] * scalar_kernel_value(y[i], y[j], spec) for i in range(m) for j in range(m))
    xy = sum(w[j] * scalar_kernel_value(x[i], y[j], spec) for i in range(n) for j in range(m))
    return xx / n**2 + yy - 2.0 * xy / n


def simplex_qp_by_supports(kyy, kxy_mean):
    """Minimum of w'Kw - 2 b'w over the probability simplex, by enumerating
    every support set and solving its equality-constrained KKT system."""
    kyy = np.asarray(kyy, dtype=float)
    b = np.asarray(kxy_mean, dtype=float)
    m = b.size
    best_val, best_w = math.inf, None
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            idx = list(support)
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * kyy[np.ix_(idx, idx)]
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.concatenate([2.0 * b[idx], [1.0]])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            w = np.zeros(m)
            w[idx] = sol[:size]
            if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
                continue
            val = float(w @ kyy @ w - 2.0 * b @ w)
            if val < best_val:
                best_val, best_w = val, w
    return best_val, best_w


def empirical_ntk(a, b, sigma_w_sq, sigma_b_sq, width, n_draws, rng):
    """Finite-width tangent kernel: explicit parameter gradients of a
    1-hidden-layer ReLU network, inner products summed over all parameters,
    averaged over weight draws."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    d = a.size
    total = 0.0
    for _ in range(n_draws):
        w0 = rng.standard_normal((width, d))
        b0 = rng.standard_normal(width)
        w1 = rng.standard_normal(width)

        def grads(x):
            z = math.sqrt(sigma_w_sq / d) * (w0 @ x) + math.sqrt(sigma_b_sq) * b0
            act = np.maximum(z, 0.0)
            back = math.sqrt(sigma_w_sq / width) * w1 * (z > 0)
            g_w1 = math.sqrt(sigma_w_sq / width) * act
            g_b1 = math.sqrt(sigma_b_sq)
            g_w0 = np.outer(back, math.sqrt(sigma_w_sq / d) * x)
            g_b0 = back * math.sqrt(sigma_b_sq)
            return g_w1, g_b1, g_w0, g_b0

        ga, gb = grads(a), grads(b)
        total += ga[0] @ gb[0] + ga[1] * gb[1] + float(np.sum(ga[2] * gb[2])) + ga[3] @ gb[3]
    return total / n_draws


def empirical_nngp(a, b, sigma_w_sq, sigma_b_sq, width, n_draws, rng):
    """Finite-width output covariance with the readout averaged analytically."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    d = a.size
    total = 0.0
    for _ in range(n_draws):
        w0 = rng.standard_normal((width, d))
        b0 = rng.standard_normal(width)
        za = math.sqrt(sigma_w_sq / d) * (w0 @ a) + math.sqrt(sigma_b_sq) * b0
        zb = math.sqrt(sigma_w_sq / d) * (w0 @ b) + math.sqrt(sigma_b_sq) * b0
        total += (sigma_w_sq / width) * (np.maximum(za, 0) @ np.maximum(zb, 0)) + sigma_b_sq
    return total / n_draws


def brute_force_assignment(overlap):
    """Best total overlap over all row->column permutations (square matrix)."""
    overlap = np.asarray(overlap, dtype=float)
    n = overlap.shape[0]
    best = -math.inf
    for perm in itertools.permutations(range(n)):
        best = max(best, sum(overlap[i, perm[i]] for i in range(n)))
    return best


def direct_convolution(signal, kernel, radius):
    """Reflect-padded 1-D convolution, scalar loops."""
    signal = np.asarray(signal, dtype=float)
    n = signal.size
    padded = np.concatenate([signal[1:radius + 1][::-1], signal, signal[-radius - 1:-1][::-1]])
    out = np.zeros(n)
    for i in range(n):
        for j, w in enumerate(kernel):
            out[i] += w * padded[i + (2 * radius - j)]
    return out


def boundary_accuracy_quadratic(pred, gt, tolerance):
    """Greedy one-to-one boundary matching, written as an explicit scan."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    gt_bounds = [i for i in range(1, gt.size) if gt[i] != gt[i - 1]]
    pred_bounds = [i for i in range(1, pred.size) if pred[i] != pred[i - 1]]
    if not gt_bounds:
        return 1.0
    used = [False] * len(pred_bounds)
    hits = 0
    for g in gt_bounds:
        best_idx, best_dist = None, None
        for k, p in enumerate(pred_bounds):
            if used[k] or abs(p - g) > tolerance:
                continue
            if best_dist is None or abs(p - g) < best_dist:
                best_idx, best_dist = k, abs(p - g)
        if best_idx is not None:
            used[best_idx] = True
            hits += 1
    return hits / len(gt_bounds)


def per_class_set_metrics(pred, gt, label_map):
    """IoU / precision / recall per ground-truth class via Python sets."""
    pred = list(map(int, pred))
    gt = list(map(int, gt))
    out = {}
    inverse = {g: p for p, g in label_map.items() if g is not None}
    for g in sorted(set(gt)):
        gt_set = {i for i, lab in enumerate(gt) if lab == g}
        if g in inverse:
            pred_set = {i for i, lab in enumerate(pred) if lab == inverse[g]}
        else:
            pred_set = set()
        inter = len(gt_set & pred_set)
        union = len(gt_set | pred_set)
        out[g] = {
            "iou": inter / union if union else 0.0,
            "precision": inter / len(pred_set) if pred_set else 0.0,
            "recall": inter / len(gt_set) if gt_set else 0.0,
        }
    return out
