"""Independent reference implementations the tests check against.

Everything here is deliberately written the slow, obvious way (scalar loops,
brute-force enumeration, explicit finite networks) and never calls the
vectorized library paths it is used to verify.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from mmdseg.errors import NumericError, ParseError
from mmdseg.kernels import CLAMP_EPS, PRODUCT_FAMILIES, SPHERE_FAMILIES, kernel_matrix
from mmdseg.preprocess import VideoFeatures
from mmdseg.synthgen import _HI, _LO, CANVAS, GLYPH_HALF, PATCHES, _action_order, trajectory_points


def finite_diff_grad(f, x, h=1e-4):
    """Central-difference gradient of a scalar function of a matrix.

    The universal gradient oracle: every hand-derived analytic gradient in
    the package is tested against it.
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


def sqdist_one_expression(gram, sq_a, sq_b, n_self):
    """``sqdist_from_gram`` as one expression over the whole product, with a
    zero diagonal on each of the leading ``n_self // len(sq_b)`` blocks set
    entry by entry."""
    d = np.maximum(sq_a[:, None] + sq_b[None, :] - 2.0 * gram, 0.0)
    for i in range(n_self):
        d[i, i % len(sq_b)] = 0.0
    return d


def partition_median(values):
    """Lower median of a 1-D array by ``np.partition``."""
    k = (values.size - 1) // 2
    return float(np.partition(values, k)[k])


def whole_matrix_scales(frames, spec, keep):
    """(lengthscale, input_scale, alpha, kxx_mean) of ``resolve_spec`` on the
    sample ``frames[keep]``, by the same arithmetic over whole matrices: the
    distance matrix in one expression, ``np.partition`` lower medians over
    the upper-triangle pairs, and the NTK factor from ``kernel_matrix`` (whose
    own oracle is ``scalar_kernel_value``). Degenerate scales are not
    handled."""
    x = np.asarray(frames, dtype=np.float64)
    d = x.shape[1]
    sample = x[keep]
    sq = np.sum(sample * sample, axis=1)
    sqdist = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (sample @ sample.T), 0.0)
    np.fill_diagonal(sqdist, 0.0)
    upper = np.triu_indices(len(sample), 1)
    pairs = sqdist[upper]
    lengthscale = partition_median(pairs)
    noise = d * np.finfo(np.float64).eps * float(np.max(sq))
    if lengthscale <= noise:
        lengthscale = partition_median(pairs[pairs > noise])
    kg = np.exp(-sqdist / lengthscale**2)
    if spec.family == "gauss":
        return lengthscale, 1.0, 1.0, float(np.mean(kg))
    med_sq = 1.0 if spec.family in SPHERE_FAMILIES else partition_median(np.sum(x * x, axis=1))
    input_scale = math.sqrt(d / med_sq)
    ntk = replace(spec, family=spec.family.removeprefix("gauss_"), input_scale=input_scale)
    kn = kernel_matrix(sample, sample, ntk)
    if spec.family not in PRODUCT_FAMILIES:
        return lengthscale, input_scale, 1.0, float(np.mean(kn))
    alpha = partition_median(kg[upper]) / partition_median(kn[upper])
    return lengthscale, input_scale, alpha, float(np.mean(alpha * kn * kg))


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
        c = min(max(k_uv / p, -1.0 + CLAMP_EPS), 1.0 - CLAMP_EPS)
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
    every support set and solving its equality-constrained KKT system.

    Each system is solved in w_i * sqrt(2 K_ii), which gives it a unit
    diagonal, so a huge self-kernel does not swamp the other weights."""
    kyy = np.asarray(kyy, dtype=float)
    b = np.asarray(kxy_mean, dtype=float)
    m = b.size
    diag = 2.0 * np.diag(kyy)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    best_val, best_w = math.inf, None
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            idx = list(support)
            s = scale[idx]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * kyy[np.ix_(idx, idx)] * np.outer(s, s)
            kkt[:size, size] = s
            kkt[size, :size] = s
            rhs = np.concatenate([2.0 * b[idx] * s, [1.0]])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            w = np.zeros(m)
            w[idx] = s * sol[:size]
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


def _has_separator_control(line):
    return "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line


def read_features_per_line(path):
    """The frames of a feature file, each line checked and converted where
    it is read, so the first bad line is the one a ``ParseError`` names:
    the reference that ``load_features``'s frames and errors must equal."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.isascii() and not line.strip() and not _has_separator_control(line):
                    continue
                if "_" in line or not line.isascii() or _has_separator_control(line):
                    raise ParseError(f"{path}:{lineno}: bad feature value ('_', non-ASCII or U+001C..U+001F)")
                try:
                    row = np.array(line.split(",") if "," in line else line.split(), dtype=np.float64)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad feature value ({exc})") from None
                if rows and row.size != rows[0].size:
                    raise ParseError(f"{path}:{lineno}: expected {rows[0].size} values, got {row.size}")
                if not np.all(np.isfinite(row)):
                    raise ParseError(f"{path}:{lineno}: non-finite feature values")
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    if not rows:
        raise ParseError(f"{path}: no feature rows found")
    return np.stack(rows)


def _canvas_per_frame(class_id, position):
    frame = np.zeros((CANVAS, CANVAS, 3))
    r, c = (min(max(round(float(p)), _LO), _HI) for p in position)
    frame[r - GLYPH_HALF: r + GLYPH_HALF + 1, c - GLYPH_HALF: c + GLYPH_HALF + 1] = PATCHES[class_id]
    return frame


def generate_video_per_frame(rng, cfg, name=""):
    """A synthetic video built one frame at a time: each trajectory point
    gets its own blank canvas with the class's patch at its rounded, clamped
    centre, the list is stacked by ``np.asarray``, noise is added and
    clipped out of place, and every row is divided by
    ``sqrt(sum(x * x))`` of the whole square (``sphere_project``'s rule for
    rows of a normal squared norm, which every synthetic row has). The
    reference whose frames and labels ``generate_video`` must equal, bit
    for bit."""
    lo, hi = cfg.seg_len_range
    classes = _action_order(rng, cfg)
    lengths = [int(rng.integers(lo, hi + 1)) for _ in classes]
    flat = np.asarray([_canvas_per_frame(class_id, pos).ravel() for class_id, length in zip(classes, lengths)
                       for pos in trajectory_points(class_id, length)])
    if cfg.noise_std > 0:
        flat = np.clip(flat + rng.normal(0.0, cfg.noise_std, size=flat.shape), 0.0, 1.0)
    labels = np.repeat(np.asarray(classes, dtype=np.int64), lengths)
    frames = flat / np.sqrt(np.sum(flat * flat, axis=1))[:, None]
    return VideoFeatures(frames=frames, labels=labels, name=name)
