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
freezes, per video, r = sqrt(d / med ||x||^2) over the rows the network sees
(the sphere-projected rows for the ``_sphere`` families, where r = sqrt(d)).
The network's input is ``r * x``: the closed form, its gradient and the
finite-width network all describe that same network, and ``alpha_rescale``
uses the same r. An unresolved spec has r = 1, the plain network.

The arccos clamp keeps gradients finite: whenever the raw cosine falls outside
the clamped interval, the gradient path through theta is zeroed, which is the
exact derivative of the clamped evaluation.

Gradients with respect to the second argument decompose as

    grad_b k(a, b) = U(a, b) * a + W(a, b) * b

for scalar coefficient fields U, W. Every family goes through ``_kernel``,
which forms the Gram product and squared row norms of its two row sets once
(once more on the projected rows for the ``_sphere`` NTK) and returns, in
one pass, the kernel values and, when asked, the full coefficient matrices,
so that MMD gradients reduce to matrix products.
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
from .numerics import make_rng, median, pairwise_sqdist, sqdist_from_gram

__all__ = [
    "FAMILIES",
    "PRODUCT_FAMILIES",
    "KernelSpec",
    "sphere_project",
    "ntk_base",
    "kernel_matrix",
    "kernel_grad_b",
    "median_lengthscale",
    "ntk_input_scale",
    "alpha_rescale",
    "resolve_spec",
]

FAMILIES = ("gauss", "nngp", "ntk", "ntk_sphere", "gauss_ntk", "gauss_ntk_sphere")
PRODUCT_FAMILIES = ("gauss_ntk", "gauss_ntk_sphere")
GAUSS_FAMILIES = ("gauss",) + PRODUCT_FAMILIES
SPHERE_FAMILIES = ("ntk_sphere", "gauss_ntk_sphere")

# Pair-sampling caps used when deriving lengthscale / rescaling from data.
MAX_SCALE_FRAMES = 2000
MAX_SCALE_PAIRS = 2_000_000


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
    clamp_eps: float = 1e-7
    input_scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KernelSpecError(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        if self.sigma_w_sq <= 0:
            raise KernelSpecError("sigma_w_sq must be positive")
        if self.sigma_b_sq < 0:
            raise KernelSpecError("sigma_b_sq must be nonnegative")
        if self.lengthscale <= 0:
            raise KernelSpecError("lengthscale must be positive")
        if self.alpha <= 0:
            raise KernelSpecError("alpha must be positive")
        if not (0.0 < self.input_scale < math.inf):
            raise KernelSpecError("input_scale must be positive and finite")
        if not (0.0 < self.clamp_eps < 1e-3):
            raise KernelSpecError("clamp_eps must lie in (0, 1e-3)")


def _as_2d(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] < 1:
        raise ShapeError(f"expected a nonempty 2-D array, got shape {x.shape}")
    return x


def _project(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms of ``x`` and its rows divided by them; rejects all-zero rows."""
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateInputError(f"cannot sphere-project all-zero row {bad}")
    return norms, x / norms[:, None]


def sphere_project(x: np.ndarray) -> np.ndarray:
    """Divide each row by its Euclidean norm; rejects all-zero rows."""
    return _project(_as_2d(x))[1]


def _gram(a: np.ndarray, b: np.ndarray):
    """Gram product ``a @ b.T`` and the squared row norms of ``a`` and ``b``."""
    return a @ b.T, np.sum(a * a, axis=1), np.sum(b * b, axis=1)


def _gauss(sqdist: np.ndarray, spec: KernelSpec) -> np.ndarray:
    return np.exp(-sqdist / spec.lengthscale**2)


def _k0_factor(d: int, spec: KernelSpec) -> float:
    """Factor s of K0 = s * <a, b> + sb2 for raw rows of dimension d."""
    return spec.sigma_w_sq * spec.input_scale**2 / d


def _arccos_form(k0_ab: np.ndarray, p: np.ndarray, spec: KernelSpec, nngp_only: bool = False,
                 grad=None):
    """NTK (or NNGP) values from K0(a, b) and p = sqrt(K0(a, a) K0(b, b)),
    elementwise on any shape.

    With ``grad = (s, k0_aa)``, where K0 = s <a, b> + sb2 and ``k0_aa`` is the
    column of K0(a_i, a_i), also returns (U, W) of grad_b for raw rows.
    """
    if np.any(p == 0.0):
        raise DegenerateInputError(
            "NTK closed form undefined for a zero-variance input (zero row with sigma_b_sq = 0)"
        )
    c_raw = k0_ab / p
    lo, hi = -1.0 + spec.clamp_eps, 1.0 - spec.clamp_eps
    c = np.clip(c_raw, lo, hi)
    pi_m_t = math.pi - np.arccos(c)
    sin_t = np.sqrt(1.0 - c * c)
    coef = spec.sigma_w_sq / (2.0 * math.pi)
    g = sin_t + pi_m_t * c
    del c  # one N x N array less at the peak of a long video's loss log
    nngp = coef * p * g + spec.sigma_b_sq
    ntk_dot = coef * pi_m_t
    values = nngp if nngp_only else nngp + k0_ab * ntk_dot
    if grad is None:
        return values
    s, k0_aa = grad
    gate = ((c_raw > lo) & (c_raw < hi)).astype(np.float64)
    u = coef * pi_m_t * gate * s
    w = coef * s * k0_aa / p * (g - pi_m_t * gate * c_raw)
    if nngp_only:
        return values, u, w
    # d(pi - theta)/dc = 1/sin(theta); the clamp gate keeps it finite.
    dot_c = coef * gate / sin_t
    u_dot = dot_c * s / p
    w_dot = -dot_c * c_raw * s * k0_aa / (p * p)
    return values, u + ntk_dot * s + k0_ab * u_dot, w + k0_ab * w_dot


def _kernel(a: np.ndarray, b: np.ndarray, spec: KernelSpec, grad: bool = False):
    """Kernel values between the rows of ``a`` and ``b``; with ``grad`` the
    tuple (values, U, W), grad_b k(a_i, b_j) = U[i, j] a_i + W[i, j] b_j.

    One Gram product per row space: the raw rows feed the Gaussian and the
    raw NTK, the projected rows feed the ``_sphere`` NTK.
    """
    family = spec.family
    sphere = family in SPHERE_FAMILIES
    kg = None
    if family != "ntk_sphere":
        gram, sq_a, sq_b = _gram(a, b)
    if family in GAUSS_FAMILIES:
        kg = _gauss(sqdist_from_gram(a, b, gram, sq_a, sq_b), spec)
        if family == "gauss":
            f = 2.0 / spec.lengthscale**2
            return (kg, f * kg, -f * kg) if grad else kg
    if sphere:
        (na, a), (nb, b) = _project(a), _project(b)
        gram, sq_a, sq_b = _gram(a, b)

    s = _k0_factor(a.shape[1], spec)
    k0_aa = s * sq_a + spec.sigma_b_sq
    p = np.sqrt(np.outer(k0_aa, s * sq_b + spec.sigma_b_sq))
    # K0 takes over the Gram buffer unless the sphere gradient still needs the cosines.
    k0_ab = np.multiply(gram, s, out=None if sphere and grad else gram)
    k0_ab += spec.sigma_b_sq
    out = _arccos_form(k0_ab, p, spec, family == "nngp", (s, k0_aa[:, None]) if grad else None)
    if not grad:
        return out if kg is None else spec.alpha * out * kg
    kn, un, wn = out
    if sphere:
        # Tangential projection kills the b-hat component of the upstream gradient.
        un, wn = un / (na[:, None] * nb[None, :]), -un * gram / (nb[None, :] ** 2)
    if kg is None:
        return kn, un, wn
    f = 2.0 / spec.lengthscale**2
    ug, wg = f * kg, -f * kg
    return (spec.alpha * kn * kg, spec.alpha * (kg * un + kn * ug),
            spec.alpha * (kg * wn + kn * wg))


def ntk_base(a_row: np.ndarray, b_row: np.ndarray, spec: KernelSpec) -> tuple[float, float, float]:
    """Closed-form (K0, NNGP, NTK) of the raw rows for a single pair of vectors."""
    a, b = _as_2d(a_row), _as_2d(b_row)
    if a.shape != b.shape or a.shape[0] != 1:
        raise ShapeError(f"ntk_base expects two equal-length vectors, got {a.shape} and {b.shape}")
    k0 = _k0_factor(a.shape[1], spec) * float(a[0] @ b[0]) + spec.sigma_b_sq
    nngp, ntk = (float(_kernel(a, b, replace(spec, family=f))[0, 0]) for f in ("nngp", "ntk"))
    return k0, nngp, ntk


def kernel_matrix(a: np.ndarray, b: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel evaluations between the rows of ``a`` and the rows of ``b``."""
    a, b = _as_2d(a), _as_2d(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"kernel_matrix: dimension mismatch {a.shape[1]} vs {b.shape[1]}")
    values = _kernel(a, b, spec)
    if not np.all(np.isfinite(values)):
        raise NumericError(f"kernel family {spec.family!r} produced non-finite values")
    return values


def kernel_grad_b(a_row: np.ndarray, b_row: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gradient of k(a, b) with respect to ``b`` for a single pair."""
    a, b = _as_2d(a_row), _as_2d(b_row)
    if a.shape != b.shape or a.shape[0] != 1:
        raise ShapeError(f"kernel_grad_b expects two equal-length vectors, got {a.shape} and {b.shape}")
    _, u, w = _kernel(a, b, spec, grad=True)
    grad = u[0, 0] * a[0] + w[0, 0] * b[0]
    if not np.all(np.isfinite(grad)):
        raise NumericError("kernel gradient is non-finite")
    return grad


def _sampled_pairs(x: np.ndarray, max_pairs: int, rng, max_frames: int):
    """Distinct-pair index arrays (i, j) into a possibly subsampled ``x``."""
    n = x.shape[0]
    if n > max_frames:
        keep = np.sort(rng.choice(n, size=max_frames, replace=False))
        x = x[keep]
        n = max_frames
    n_pairs = n * (n - 1) // 2
    if n_pairs <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        i = rng.integers(0, n, size=max_pairs)
        j = rng.integers(0, n, size=max_pairs)
        clash = i == j
        while np.any(clash):
            j[clash] = rng.integers(0, n, size=int(clash.sum()))
            clash = i == j
    return x, i, j


def median_lengthscale(x: np.ndarray, max_pairs: int = MAX_SCALE_PAIRS,
                       rng: np.random.Generator | None = None,
                       max_frames: int = MAX_SCALE_FRAMES) -> float:
    """Median of squared pairwise distances over distinct rows of ``x``.

    Long inputs are subsampled (seeded) to at most ``max_frames`` rows and
    ``max_pairs`` pairs before taking the median. When at least half of the
    sampled distances are zero (a still frame held for most of the video),
    the median runs over the nonzero ones, so the lengthscale measures how
    the frames that do differ differ. In that case a distance within the
    rounding error of the Gram expansion, d * eps * max ||x||^2, counts as
    zero: a lengthscale made of rounding noise would blow up the gradient.
    """
    x = _as_2d(x)
    if x.shape[0] < 2:
        raise ValueError("median_lengthscale needs at least 2 rows")
    rng = rng if rng is not None else make_rng(0)
    x, i, j = _sampled_pairs(x, max_pairs, rng, max_frames)
    sqdist = pairwise_sqdist(x, x)[i, j]
    lam = median(sqdist)
    if lam <= 0.0:
        noise = x.shape[1] * np.finfo(np.float64).eps * float(np.max(np.sum(x * x, axis=1)))
        moving = sqdist[sqdist > noise]
        if moving.size == 0:
            raise DegenerateScaleError(
                "every sampled squared distance is zero or rounding noise (are all frames identical?)"
            )
        lam = median(moving)
    return lam


def ntk_input_scale(x: np.ndarray, spec: KernelSpec) -> float:
    """Input scale r = sqrt(d / med ||x||^2) for the NTK network of ``spec``.

    The median runs over the rows the network sees (sphere-projected for the
    ``_sphere`` families), so the scaled rows satisfy the ``||x||^2 / d ~ 1``
    convention of the closed form's 1/d.
    """
    x = _as_2d(x)
    xs = sphere_project(x) if spec.family in SPHERE_FAMILIES else x
    med_sq = median(np.sum(xs * xs, axis=1))
    if med_sq <= 0.0:
        raise DegenerateScaleError("median squared row norm is zero (are most frames all-zero?)")
    return math.sqrt(xs.shape[1] / med_sq)


def alpha_rescale(x: np.ndarray, spec: KernelSpec, max_pairs: int = MAX_SCALE_PAIRS,
                  rng: np.random.Generator | None = None,
                  max_frames: int = MAX_SCALE_FRAMES) -> float:
    """Ratio med(gauss) / med(ntk) over sampled distinct row pairs of ``x``.

    Brings the two factors of a product kernel into the same range. Uses the
    NTK variant the product family calls for (sphere-projected or raw).
    """
    x = _as_2d(x)
    if x.shape[0] < 2:
        raise ValueError("alpha_rescale needs at least 2 rows")
    rng = rng if rng is not None else make_rng(0)
    x, i, j = _sampled_pairs(x, max_pairs, rng, max_frames)
    gram = x @ x.T
    sq = np.sum(x * x, axis=1)
    gauss_vals = _gauss(sqdist_from_gram(x, x, gram, sq, sq)[i, j], spec)
    if spec.family in SPHERE_FAMILIES:
        xs = sphere_project(x)
        gram = xs @ xs.T
    s = _k0_factor(x.shape[1], spec)
    k0_diag = s * np.diag(gram) + spec.sigma_b_sq
    p = np.sqrt(k0_diag[i] * k0_diag[j])
    med_ntk = median(_arccos_form(s * gram[i, j] + spec.sigma_b_sq, p, spec))
    if med_ntk <= 0.0:
        raise DegenerateScaleError("median NTK value is not positive; cannot rescale")
    med_gauss = median(gauss_vals)
    if med_gauss == 0.0:
        raise DegenerateScaleError(
            "median Gaussian value underflows to zero (are most frames near-identical?)"
        )
    return med_gauss / med_ntk


def resolve_spec(frames: np.ndarray, spec: KernelSpec,
                 rng: np.random.Generator | None = None,
                 max_pairs: int = MAX_SCALE_PAIRS,
                 max_frames: int = MAX_SCALE_FRAMES) -> KernelSpec:
    """Freeze the data-derived parameters of ``spec`` for one video.

    Sets the Gaussian lengthscale from the median heuristic, for NTK
    families the network's input scale, and for product families the
    ntk/gauss rescaling under that input scale; all are computed once, before
    any optimization, and never touched again.
    """
    rng = rng if rng is not None else make_rng(0)
    resolved = replace(spec, lengthscale=median_lengthscale(frames, max_pairs, rng, max_frames))
    if spec.family != "gauss":
        resolved = replace(resolved, input_scale=ntk_input_scale(frames, resolved))
    if spec.family in PRODUCT_FAMILIES:
        resolved = replace(resolved, alpha=alpha_rescale(frames, resolved, max_pairs, rng, max_frames))
    return resolved
