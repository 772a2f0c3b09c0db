"""Closed-form kernels and their analytic gradients.

Families
--------
``gauss``             exp(-||a - b||^2 / lengthscale^2)
``nngp``              output covariance of an infinitely wide Dense->ReLU->Dense
                      network at initialization
``ntk``               tangent kernel of the same network: the infinite-width
                      limit of the summed inner products of parameter gradients
``ntk_sphere``        ``ntk`` evaluated on rows projected to the unit sphere
``gauss_ntk``         alpha * ntk * gauss (elementwise product, rescaled)
``gauss_ntk_sphere``  alpha * ntk_sphere * gauss

Closed form for the Dense->ReLU->Dense network with weight variance sw2 and
bias variance sb2, inputs of dimension d scaled by ``input_scale`` (r):

    K0(a, b)  = sw2 * r^2 * <a, b> / d + sb2
    c         = K0(a, b) / sqrt(K0(a, a) * K0(b, b)),  clamped away from +-1
    theta     = arccos(c)
    NNGP      = sw2 * sqrt(K0(a,a) K0(b,b)) * (sin t + (pi - t) cos t)/(2 pi) + sb2
    NTK       = NNGP + K0(a, b) * sw2 * (pi - theta) / (2 pi)

Input scale convention: the 1/d in K0 assumes network inputs with
``||x||^2 / d ~ 1``. Feature rows rarely look like that (the synthetic frames
are unit-norm and 2352-D, so the data term would be ~1e-3 against sb2 = 0.1
and the NTK factor would be numerically constant). ``resolve_spec`` therefore
freezes, per video, r = sqrt(d / med ||x||^2) over all frames. The
``_sphere`` families feed the network unit rows, so their r is exactly
sqrt(d). The network's input is ``r * x``: the closed form, its gradient
and the finite-width network all describe that same network, and the
product rescaling alpha uses the same r. An unresolved spec has r = 1, the
plain network.

Scales: ``resolve_spec`` fixes a video's lengthscale, input scale and alpha
in one pass. It forms the ``row_stats`` of all frames, samples at most
``MAX_SCALE_FRAMES`` frames once and takes the pair statistics of every
median from one Gram product of the raw sample. Its NTK factor is no copy
of the kernel: ``_kernel_core`` runs over that product in blocks of
``RESOLVE_BLOCK`` pairs. Beyond the frames, it holds that product (and,
when it returns it, a copy for the NTK factor), one more matrix of pair
values and one copy of the pairs a median reads, and a drawn sample only
while it forms the product. It returns the sample, the resolved kernel's
mean over it (the trainer's mean(Kxx), exactly the mean of
``kernel_matrix`` on the sample), the row stats of the frames and of the
sample, and, when the sample is every frame and the frames are fewer than
their width, that Gram product G = X X^T of the frames, which the trainer
reads in place of the frames' rows.

The arccos clamp keeps gradients finite: whenever the raw cosine falls outside
the clamped interval, the gradient path through theta is zeroed, which is the
exact derivative of the clamped evaluation.

Gradients with respect to the second argument decompose as

    grad_b k(a, b) = U(a, b) * a + W(a, b) * b

for scalar coefficient fields U, W. Every family goes through one
elementwise chain, ``_kernel_core``, which holds the closed form above,
written once. It reads a Gram product and the ``row_stats`` of both row
sets (squared row norms, and for the ``_sphere`` NTK the row norms it
divides the product by to get its cosines) and returns, in one pass,
either the kernel values or the full coefficient matrices, so that MMD
gradients reduce to matrix products. Each pass forms only what it
returns: a gradient pass forms NTK values only for the product rule of
the product families. It has two callers.
``_stacked_pass`` forms every kernel block the method measures: one pass
over the Gram blocks ``y @ y.T`` and ``x @ y.T`` stacked into an
(m + n) x m array gives Kyy and Kxy together (their values for the loss
terms, their coefficients for a step). It forms the blocks from rows, or,
for prototypes held in the frames' span as ``Y = C X``, from G alone:
``y @ y.T = H C^T`` and ``x @ y.T`` the batch's columns of ``H = C G``,
transposed, with the prototypes' squared norms ``sum(H * C)``
(``_span_row_stats``). ``kernel_matrix(a, b)`` is the cross block of that
pass over ``[b; a]`` against ``b``, and the MMD terms and gradient read
both blocks. ``resolve_spec`` runs the chain over a frame sample for the
scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateInputError,
    DegenerateScaleError,
    KernelSpecError,
    NumericError,
    ShapeError,
)
from .numerics import make_rng, median, sqdist_from_gram

__all__ = [
    "FAMILIES",
    "PRODUCT_FAMILIES",
    "KernelSpec",
    "sphere_project",
    "kernel_matrix",
    "resolve_spec",
    "row_stats",
]

FAMILIES = ("gauss", "nngp", "ntk", "ntk_sphere", "gauss_ntk", "gauss_ntk_sphere")
PRODUCT_FAMILIES = ("gauss_ntk", "gauss_ntk_sphere")
GAUSS_FAMILIES = ("gauss",) + PRODUCT_FAMILIES
SPHERE_FAMILIES = ("ntk_sphere", "gauss_ntk_sphere")

# Frames sampled (seeded) when a video's scales are taken from its frames.
MAX_SCALE_FRAMES = 2000
# Sample pairs per block in ``resolve_spec``: RESOLVE_BLOCK // m rows of an m-frame
# sample (at least one), so samples of up to 362 frames run as one block. On a
# 2000-frame sample, 2^15 to 2^17 pairs keep the blocks below the medians' peak
# (82.1 MiB) at the same speed; 2^18 pairs go 2.8 MiB above it and 2^19 23 MiB.
RESOLVE_BLOCK = 2**17
# Rows per block of squares in ``sphere_project``; of 8 to 512, 32 was fastest on
# 2396 x 2352 frames with one BLAS thread (6.7 ms, the whole N x d square 14.6 ms),
# and a 32-row block of 2352-D frames is 0.57 MiB.
PROJECT_BLOCK = 32
# The arccos argument is clamped to [-1 + CLAMP_EPS, 1 - CLAMP_EPS].
CLAMP_EPS = 1e-7


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus fixed parameters; immutable once constructed.

    ``lengthscale``, ``input_scale`` and ``alpha`` are data-derived per video
    (median heuristics) and frozen before any training step.
    ``input_scale`` multiplies the NTK network's inputs.
    """

    family: str = "gauss_ntk"
    sigma_w_sq: float = 2.0
    sigma_b_sq: float = 0.1
    lengthscale: float = 1.0
    alpha: float = 1.0
    input_scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KernelSpecError(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        for name in ("sigma_w_sq", "lengthscale", "alpha", "input_scale"):
            if not (0.0 < getattr(self, name) < math.inf):  # also false for NaN
                raise KernelSpecError(f"{name} must be positive and finite")
        if not (0.0 <= self.sigma_b_sq < math.inf):
            raise KernelSpecError("sigma_b_sq must be nonnegative and finite")


def _as_2d(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or min(x.shape) < 1:
        raise ShapeError(f"expected a nonempty 2-D array, got shape {x.shape}")
    return x


def _as_pair(a, b, who: str):
    a, b = _as_2d(a), _as_2d(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"{who}: dimension mismatch {a.shape[1]} vs {b.shape[1]}")
    return a, b


def _extreme(sq: np.ndarray) -> np.ndarray:
    """Rows whose squared norm ``sq`` is 0, subnormal, inf or NaN."""
    return ~((sq >= np.finfo(np.float64).tiny) & (sq < np.inf))


def _row_norms(x: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Norms of the rows of ``x`` from their squared norms ``sq``; rejects
    all-zero rows, which have no direction. A row whose ``sq`` left the
    normal range is measured on ``x / max |x|`` and scaled back."""
    norms = np.sqrt(sq)
    extreme = np.flatnonzero(_extreme(sq))
    if extreme.size:
        peak = np.max(np.abs(x[extreme]), axis=1)
        if np.any(peak == 0.0):
            raise DegenerateInputError(f"cannot sphere-project all-zero row {extreme[peak == 0.0][0]}")
        norms[extreme] = peak * np.linalg.norm(x[extreme] / peak[:, None], axis=1)
    return norms


def sphere_project(x: np.ndarray) -> np.ndarray:
    """Divide each row by its Euclidean norm; rejects all-zero rows.

    A row whose squared norm is 0, subnormal or inf is first divided by its
    largest absolute entry, so tiny and huge rows keep their direction; every
    other row is divided by ``sqrt(sum(x * x))`` as it stands. The squares
    are summed ``PROJECT_BLOCK`` rows at a time, which gives each row the
    sum the whole ``x * x`` would, so beside the result only one block of
    squares is formed.
    """
    x = _as_2d(x)
    sq = np.empty(x.shape[0])
    with np.errstate(over="ignore"):  # such rows are rescaled below
        for lo in range(0, x.shape[0], PROJECT_BLOCK):
            sq[lo: lo + PROJECT_BLOCK] = np.sum(np.square(x[lo: lo + PROJECT_BLOCK]), axis=1)
    extreme = _extreme(sq)
    if np.any(extreme):
        peak = np.max(np.abs(x[extreme]), axis=1, keepdims=True)
        x = x.copy()
        x[extreme] /= np.where(peak > 0.0, peak, 1.0)
        sq[extreme] = np.sum(x[extreme] * x[extreme], axis=1)
    return x / _row_norms(x, sq)[:, None]


def row_stats(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The row quantities of ``x`` that the kernel reads besides the Gram
    product: a (1, n) array of the squared row norms, with the row norms as
    a second row for the ``_sphere`` families. A caller that meets the same
    rows again (the trainer's frames) forms it once and takes its columns."""
    sq = np.sum(x * x, axis=1)
    return sq[None, :] if spec.family not in SPHERE_FAMILIES else np.stack((sq, _row_norms(x, sq)))


def _gauss(sqdist: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """exp(-sqdist / lengthscale^2), written over ``sqdist``."""
    np.negative(sqdist, out=sqdist)
    sqdist /= spec.lengthscale**2
    return np.exp(sqdist, out=sqdist)


def _kernel_core(gram: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray, d: int,
                 n_self: int, spec: KernelSpec, grad: bool):
    """The kernel's one elementwise chain: the values, or with ``grad`` only
    the coefficients (U, W) of grad_b k(a_i, b_j) = U[i, j] a_i + W[i, j] b_j,
    from the Gram product ``gram = a @ b.T``, which it consumes, and the
    ``row_stats`` of ``a`` and ``b`` for rows of dimension ``d``. The
    leading ``n_self`` rows of ``a`` are the rows of ``b``, one or more
    times over, so their pair distances have an exactly zero diagonal.
    Its callers: ``_stacked_pass`` for every kernel block the method
    measures and ``resolve_spec`` for the scales.

    The Gaussian and the raw NTK read the product as is; the ``_sphere`` NTK
    sees the rows divided by their norms, so it reads the cosines
    ``gram / outer(|a|, |b|)``, with squared norms of exactly 1 and a
    cosine of exactly 1 wherever the distance is zeroed.

    The NTK closed form (module docstring) is written here once: K0 over
    the product, p = sqrt(K0(a, a) K0(b, b)) from the row stats (zero p is a
    ``DegenerateInputError``), the clamped cosine, theta = arccos(c), the
    NNGP, and for every family but ``nngp`` the dot term
    K0(a, b) * sw2 * (pi - theta) / (2 pi). A value pass forms the values
    only. A gradient pass forms U and W, with the clamp gate zeroing the
    path through theta wherever the raw cosine left the clamped interval;
    it forms the NTK values only for the product families, whose product
    rule reads them.
    """
    family = spec.family
    sphere = family in SPHERE_FAMILIES
    kg = None
    sq_a, sq_b = rows_a[0], rows_b[0]
    if family in GAUSS_FAMILIES:
        kg = _gauss(sqdist_from_gram(gram, sq_a, sq_b, n_self), spec)
        ug = 2.0 / spec.lengthscale**2 * kg if grad else None  # the Gaussian's U; its W is -U
        if family == "gauss":
            return (ug, -ug) if grad else kg
    if sphere:
        with np.errstate(invalid="ignore"):  # 0 / 0 where a tiny row's square underflows
            norms = rows_a[1][:, None] * rows_b[1]
            gram /= norms
        self_pairs = np.arange(n_self)
        gram[self_pairs, self_pairs % gram.shape[1]] = 1.0  # where the distances are zero
        sq_a, sq_b = np.ones(rows_a.shape[1]), np.ones(rows_b.shape[1])

    s = spec.sigma_w_sq * spec.input_scale**2 / d  # K0 = s * <a, b> + sb2
    k0_aa = (s * sq_a + spec.sigma_b_sq)[:, None]
    p = np.sqrt(k0_aa * (s * sq_b + spec.sigma_b_sq))
    # K0 takes over the Gram buffer unless the sphere gradient still needs the cosines.
    k0_ab = np.multiply(gram, s, out=None if sphere and grad else gram)
    k0_ab += spec.sigma_b_sq
    if (p == 0.0).any():
        raise DegenerateInputError(
            "NTK closed form undefined for a zero-variance input (zero row with sigma_b_sq = 0)"
        )
    c_raw = k0_ab / p
    lo, hi = -1.0 + CLAMP_EPS, 1.0 - CLAMP_EPS
    c = np.minimum(np.maximum(c_raw, lo), hi)  # np.clip's bits, without its wrapper
    pi_m_t = math.pi - np.arccos(c)
    sin_t = np.sqrt(1.0 - c * c)
    coef = spec.sigma_w_sq / (2.0 * math.pi)
    g = sin_t + pi_m_t * c
    coef_pi_m_t = None if family == "nngp" and not grad else coef * pi_m_t  # the NTK adds K0(a, b) * it
    if not grad or kg is not None:  # the values, which the product rule reads too
        kn = coef * p * g + spec.sigma_b_sq
        if family != "nngp":
            kn += k0_ab * coef_pi_m_t
        if not grad:
            return kn if kg is None else spec.alpha * kn * kg
    gate = ((c_raw > lo) & (c_raw < hi)).astype(np.float64)
    u = coef_pi_m_t * gate * s
    w = coef * s * k0_aa / p * (g - pi_m_t * gate * c_raw)
    if family != "nngp":
        # d(pi - theta)/dc = 1/sin(theta); the clamp gate keeps it finite.
        dot_c = coef * gate / sin_t
        u_dot = dot_c * s / p
        w_dot = -dot_c * c_raw * s * k0_aa / (p * p)
        u, w = u + coef_pi_m_t * s + k0_ab * u_dot, w + k0_ab * w_dot
    if sphere:
        # Tangential projection kills the b-hat component of the upstream gradient.
        u, w = u / norms, -u * gram / rows_b[1] ** 2
    if kg is None:
        return u, w
    kn_ug = kn * ug
    return spec.alpha * (kg * u + kn_ug), spec.alpha * (kg * w - kn_ug)


def _span_row_stats(c: np.ndarray, h: np.ndarray, frames: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """``row_stats`` of the rows ``c @ frames`` from ``h = c @ frames @ frames.T``
    without forming them: their squared norms are ``sum(h * c)``. When one
    of those leaves the normal range (zero, subnormal, rounded below zero,
    inf or NaN) the rows are formed and measured as ``row_stats`` does."""
    sq = np.add.reduce(h * c, axis=1)
    if not (np.finfo(np.float64).tiny <= sq.min() and sq.max() < np.inf):  # not np.any(_extreme(sq))
        return row_stats(c @ frames, spec)
    return sq[None, :] if spec.family not in SPHERE_FAMILIES else np.stack((sq, np.sqrt(sq)))


def _stacked_pass(x, y, spec: KernelSpec, x_rows: np.ndarray, span=None, grad: bool = False):
    """The kernel of rows ``y`` stacked above rows ``x``, against ``y``: rows
    ``:m`` hold Kyy and rows ``m:`` Kxy, with ``m = len(y)``; with ``grad``,
    the coefficients (U, W) of both blocks in place of the values.
    ``x_rows`` is ``row_stats(x, spec)``; rows come checked by the caller.

    One pass of ``_kernel_core`` over the Gram blocks ``y @ y.T`` and
    ``x @ y.T`` stacked into an (m + n) x m array, formed from rows or in
    the frames' span. From rows: ``x @ y.T`` as ``(y @ x.T).T`` (the m
    prototypes on the left of the thin product) and the row stats of
    ``y``; Kyy's diagonal distances are zero, and Kxy's when ``x`` equals
    ``y``. In the span, ``span = (frames, gram)`` with ``gram = frames @
    frames.T``, ``y`` is ``[C | H]``, the prototypes ``C @ frames`` beside
    ``H = C @ gram``, and ``x`` indexes the frames: the blocks are
    ``H @ C.T`` and ``H[:, x].T``, with ``_span_row_stats``, and no row is
    formed.
    """
    if span is None:
        blocks, y_rows, d = (y @ y.T, (y @ x.T).T), row_stats(y, spec), y.shape[1]
    else:
        frames, gram = span
        c, h = y[:, :len(gram)], y[:, len(gram):]
        blocks, y_rows, d = (h @ c.T, h[:, x].T), _span_row_stats(c, h, frames, spec), frames.shape[1]
    n_self = 2 * len(y) if span is None and np.array_equal(x, y) else len(y)
    n = len(blocks[1])
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.shape != (len(y_rows), n):
        raise ShapeError(f"expected row stats of shape {(len(y_rows), n)} for {n} rows, got {x_rows.shape}")
    return _kernel_core(np.concatenate(blocks), np.concatenate((y_rows, x_rows), axis=1), y_rows, d,
                        n_self, spec, grad)


def kernel_matrix(a: np.ndarray, b: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel evaluations between the rows of ``a`` and the rows of ``b``:
    the cross block of ``_stacked_pass`` over ``[b; a]`` against ``b``.
    Only that block is checked for non-finite values, so rows of ``b``
    whose self-kernel overflows still give their finite cross values, and
    without a warning about the block they are dropped with."""
    a, b = _as_pair(a, b, "kernel_matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _stacked_pass(a, b, spec, row_stats(a, spec))[len(b):]
    if not np.isfinite(values).all():
        raise NumericError(f"kernel family {spec.family!r} produced non-finite values")
    return values


def resolve_spec(frames: np.ndarray, spec: KernelSpec,
                 rng: np.random.Generator | None = None):
    """Freeze the data-derived parameters of ``spec`` for one video; returns
    ``(spec, sample, kxx_mean, frame_rows, sample_rows, gram)``.

    One pass over one sample: ``sample`` holds at most ``MAX_SCALE_FRAMES``
    frames (a view of all frames when they fit, else a seeded draw kept in
    order). ``frame_rows`` is ``row_stats`` of all frames and
    ``sample_rows`` its columns for the sample, which the trainer reuses.
    One Gram product of the sample's raw rows with the squared row norms
    gives the pair distances; ``gram`` is that product, intact, when the
    sample is every frame and there are fewer frames than dimensions (the
    trainer's frame span), else None. A drawn sample is gathered for the
    product, freed, and gathered again on return, once the pair arrays are
    gone; the distances are formed without a temporary of their size. Over
    the distinct pairs, each median partitioned in one copy, come

    - ``lengthscale``, the median squared pairwise distance. A distance at or
      below the rounding error of the Gram expansion, d * eps * max ||x||^2,
      counts as zero. When the median is zero (a still frame held for most
      of the video) it runs over the nonzero distances, so the lengthscale
      measures how the frames that do differ differ; when none is left the
      scale has collapsed and ``DegenerateScaleError`` is raised;
    - for NTK families, the network's input scale r = sqrt(d / med ||x||^2)
      over all frames. The ``_sphere`` families see unit rows, so r is
      exactly sqrt(d). Every frame, not only the sample, must then have a
      direction: an all-zero row raises ``DegenerateInputError`` (a row of
      tiny or huge entries is measured exactly, as in ``kernel_matrix``);
    - for product families, alpha = med(gauss) / med(ntk), which brings the
      two factors into the same range.

    The NTK factor runs through ``_kernel_core``, as every kernel value
    does, so K0(a, a) comes from the squared row norms. It takes blocks of
    ``RESOLVE_BLOCK // m`` of the m sample rows against the columns from the
    block's first row on, each written over the part of the Gram product it
    consumed (of a copy, when ``gram`` is returned) and mirrored below the
    block. So the pass holds at most the Gram product (and that copy), the
    Gaussian values or distances over every pair, one pair copy and one
    block's temporaries, or, earlier, a drawn sample beside the product.
    ``kxx_mean`` is the resolved kernel's mean over all ordered pairs of the
    sample, diagonal included, equal to
    ``kernel_matrix(sample, sample, spec).mean()``: the mean(Kxx) of the
    trainer's loss.

    All are computed once, before any optimization, and never touched again.
    A single frame has no pair to take a scale from: ``DegenerateScaleError``.
    """
    x = _as_2d(frames)
    n, d = x.shape
    if n < 2:
        raise DegenerateScaleError("a video of one frame has no pairwise distance to take a scale from")
    rng = rng if rng is not None else make_rng(0)
    family = spec.family
    whole = n <= MAX_SCALE_FRAMES  # the sample is every frame
    span = whole and n < d  # the trainer's frame span, which reads ``gram``
    keep = slice(None) if whole else np.sort(rng.choice(n, size=MAX_SCALE_FRAMES, replace=False))
    frame_rows = row_stats(x, spec)
    sample_rows = frame_rows[:, keep]
    m, sq = sample_rows.shape[1], sample_rows[0]
    rows = max(1, RESOLVE_BLOCK // m)
    sample = x[keep]
    gram = sample @ sample.T
    del sample  # its only use in the pass; gathered again on return
    sqdist = sqdist_from_gram(gram, sq, sq, m, rows)
    upper = np.triu(np.ones((m, m), dtype=bool), 1)  # the distinct pairs
    noise = d * np.finfo(np.float64).eps * float(np.max(sq))
    lengthscale = median(sqdist, upper)
    if lengthscale <= noise:
        moving = upper & (sqdist > noise)
        if not moving.any():
            raise DegenerateScaleError(
                "every sampled squared distance is zero or rounding noise (are all frames identical?)"
            )
        lengthscale = median(sqdist, moving)
        del moving
    resolved = replace(spec, lengthscale=lengthscale)
    k = _gauss(sqdist, resolved) if family in GAUSS_FAMILIES else None  # over sqdist
    del sqdist
    if family != "gauss":
        med_sq = 1.0 if family in SPHERE_FAMILIES else median(frame_rows[0])
        if med_sq <= 0.0:
            raise DegenerateScaleError("median squared row norm is zero (are most frames all-zero?)")
        resolved = replace(resolved, input_scale=math.sqrt(d / med_sq))
        ntk = replace(resolved, family=family.removeprefix("gauss_"))
        # A block reads only product entries that no earlier block wrote.
        kn = gram.copy() if span else gram
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            kn[lo:hi, lo:] = _kernel_core(kn[lo:hi, lo:], sample_rows[:, lo:hi], sample_rows[:, lo:],
                                          d, hi - lo, ntk, grad=False)
            kn[hi:, lo:hi] = kn[lo:hi, hi:].T
        if family in PRODUCT_FAMILIES:
            med_ntk = median(kn, upper)
            if med_ntk <= 0.0:
                raise DegenerateScaleError("median NTK value is not positive; cannot rescale")
            med_gauss = median(k, upper)
            if med_gauss == 0.0:
                raise DegenerateScaleError(
                    "median Gaussian value underflows to zero (are most frames near-identical?)"
                )
            resolved = replace(resolved, alpha=med_gauss / med_ntk)
            kn *= resolved.alpha
            kn *= k
        k = kn
    kxx_mean = float(np.mean(k))
    if not math.isfinite(kxx_mean):
        raise NumericError(f"kernel family {family!r} has a non-finite mean on the frame sample")
    k = kn = upper = None  # the pair arrays go before the sample is gathered again
    gram = gram if span else None
    return resolved, x[keep], kxx_mean, frame_rows, sample_rows, gram
