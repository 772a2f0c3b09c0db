"""End-to-end prototype learner.

A video is summarized by M weighted synthetic frames trained so that their
distribution matches the real frame distribution in kernel space (squared
MMD, minimized by gradient descent with decoupled weight decay over shuffled
batches of ~N/M frames, the weights refit to their MMD optimum before the
first epoch and after every epoch, on the frame sample that also fixed the
kernel scales; each epoch's refit starts from the previous weights). Real
frames are then labeled by the synthetic frame that contributes most to the
approximation's kernel mean at them, and runs of equal labels become the
predicted segments. Nothing forces every prototype to win frames (a weight
may fall to zero), so the number of realized segments can fall below M.

Every step keeps each prototype in the span of the frames X, Y = C X. A
video of at most ``MAX_SCALE_FRAMES`` frames, fewer than its width, is
therefore trained on the coefficients C beside H = C G: each step reads the
frames' N x N Gram product G instead of their rows, and moves H along with
C. Longer or narrower videos train on the rows of Y.
``Approximation.prototypes`` holds rows either way (``C @ X``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, kernel_matrix, resolve_spec
from .mmd import mmd2_from_terms, mmd2_grad_y, mmd2_terms, simplex_weights
from .numerics import make_rng
from .preprocess import VideoFeatures, l2_normalize_rows, temporal_smooth

__all__ = [
    "TrainConfig",
    "Approximation",
    "Segmentation",
    "Profile",
    "PROFILES",
    "uniform_spans",
    "init_uniform_means",
    "train_approximation",
    "assign",
    "segment_video",
]

# Fixed for every video: until frames share one unit, a per-run rate would only tune around the scale.
LEARNING_RATE = 5e-2


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run: plain gradient steps with
    decoupled weight decay, both at the fixed ``LEARNING_RATE``.

    ``kernel`` names the kernel family; an unknown name is a
    ``KernelSpecError``. The family is the only kernel choice a run makes:
    ``resolve_spec`` derives the lengthscale, input scale and alpha from the
    video, and the NTK variances keep ``KernelSpec``'s defaults.
    """

    m: int
    epochs: int = 100
    weight_decay: float = 1e-3
    seed: int = 0
    kernel: str = KernelSpec.family

    def __post_init__(self):
        KernelSpec(family=self.kernel)
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not (0.0 <= self.weight_decay < math.inf):  # also false for NaN
            raise ValueError(f"weight_decay must be nonnegative and finite, got {self.weight_decay}")


@dataclass(frozen=True)
class Approximation:
    """Learned synthetic frames plus the frozen kernel and the loss trace.

    ``weights`` are the prototypes' masses on the probability simplex, always
    given: uniform (1/M each) for an untrained approximation.
    """

    prototypes: np.ndarray
    spec: KernelSpec
    train_log: list[float]
    weights: np.ndarray


@dataclass(frozen=True)
class Segmentation:
    """Per-frame labels; their run-length encoding and count are read from them."""

    frame_labels: np.ndarray

    @classmethod
    def from_labels(cls, labels) -> "Segmentation":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size < 1:
            raise ValueError("labels must be a nonempty 1-D sequence")
        return cls(frame_labels=labels)

    @property
    def n_frames(self) -> int:
        return int(self.frame_labels.size)

    @property
    def segments(self) -> list[tuple[int, int, int]]:
        """Runs of equal labels as (start, end, label), end exclusive."""
        labels = self.frame_labels
        edges = [0, *(np.flatnonzero(np.diff(labels)) + 1).tolist(), labels.size]
        return [(s, e, int(labels[s])) for s, e in zip(edges, edges[1:])]

    def to_dict(self) -> dict:
        return {
            "n_frames": self.n_frames,
            "frame_labels": [int(x) for x in self.frame_labels],
            "segments": [{"start": s, "end": e, "label": l} for s, e, l in self.segments],
        }


def uniform_spans(n: int, m: int) -> list[tuple[int, int]]:
    """Split 0..n into m contiguous spans, ``np.array_split``'s: the first
    ``n % m`` spans hold ``n // m + 1`` frames, the rest ``n // m``.

    Shared by the uniform-mean initializer and the uniform baseline so both
    always agree on boundaries.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < m:
        raise ValueError(f"cannot split {n} frames into {m} spans")
    return [(int(s[0]), int(s[-1]) + 1) for s in np.array_split(np.arange(n), m)]


def init_uniform_means(frames: np.ndarray, m: int) -> np.ndarray:
    """Prototype j = mean of the frames in uniform span j."""
    frames = np.asarray(frames, dtype=np.float64)
    return np.stack([frames[s:e].mean(axis=0) for s, e in uniform_spans(frames.shape[0], m)])


def train_approximation(v: VideoFeatures, cfg: TrainConfig) -> Approximation:
    """Learn the synthetic frames for one (already preprocessed) video.

    Freezes the kernel scales on the input frames and initializes prototypes
    to uniform-span means with uniform weights. Each epoch shuffles the
    frames and takes one step per batch of floor(N/M) of them (the short last
    batch kept) on the batch's weighted MMD^2 gradient (plain gradient
    descent with decoupled weight decay), then refits the weights to their
    MMD^2 optimum for the new prototypes; training starts from the optimal
    weights of the initial prototypes (with no epochs the weights stay
    uniform). That first refit starts cold, at the best single prototype;
    each epoch's refit starts from the previous refit's weights, whose
    support is usually already the optimal one, so it takes one face solve
    instead of one per prototype and returns the same bytes as a cold start
    (``simplex_weights``). The refit and the logged loss run over the frame
    sample whose index ``resolve_spec`` returns (all frames, or a seeded
    draw of ``MAX_SCALE_FRAMES`` on a longer video) with its mean(Kxx).
    ``train_log[0]`` is the loss at initialization; one entry follows per
    epoch. Every step is at ``LEARNING_RATE``. Fully deterministic given the
    seed.

    Each value is formed as rarely as it changes: the ``row_stats`` of the
    frames once per video, by ``resolve_spec`` (the sample and each batch
    take their columns), and one stacked kernel pass, Kyy above Kxy, per
    gradient step and per loss evaluation.

    Which representation runs reads only the frames' shape, and
    ``resolve_spec`` decides it: it returns G only for a video of at most
    ``MAX_SCALE_FRAMES`` frames, fewer than its width d, which trains in the
    frames' span: every step keeps each prototype a combination of the
    frames, ``Y = C X``, so the prototypes are held as ``[C | H]`` with
    ``H = C G`` and G = X X^T, the Gram product ``resolve_spec`` formed once.
    A step reads its Gram blocks as ``H C^T`` and the batch's columns of
    ``H``, and takes the same Euclidean step on Y written over the frames
    (``mmd2_grad_y``), returned as ``[D | D G]``; the decay is linear too,
    so every step moves H by G times C's move and H is never formed again.
    No step forms a product over the d-wide rows or an m x N x N product.
    Every other video (a long one, or one with N >= d) holds the rows of Y.
    Either way ``Approximation.prototypes`` is the rows of Y: ``C @ X`` in
    the span, formed once at the end, and with no epochs
    ``init_uniform_means`` itself.
    """
    frames = np.asarray(v.frames, dtype=np.float64)
    n = len(frames)
    if cfg.m > n:
        raise ValueError(f"m = {cfg.m} exceeds the {n} available frames")

    # Refit and loss run on the scale sample; each epoch's Kyy and Kxy give
    # both the logged loss and the refit weights.
    spec, keep, kxx_mean, frame_rows, gram = resolve_spec(
        frames, KernelSpec(family=cfg.kernel), make_rng(cfg.seed, 0))
    sample_rows = frame_rows[:, keep]
    span = (frames, gram) if gram is not None else None
    if span is None:
        y, sample_x = init_uniform_means(frames, cfg.m), frames[keep]
    else:  # [C | C G], C the uniform spans' averaging weights
        c = np.zeros((cfg.m, n))
        for j, (lo, hi) in enumerate(uniform_spans(n, cfg.m)):
            c[j, lo:hi] = 1.0 / (hi - lo)
        y, sample_x = np.hstack((c, c @ gram)), keep
    rng_batches = make_rng(cfg.seed, 1)

    weights = np.full(cfg.m, 1.0 / cfg.m)
    kyy, kxy_mean = mmd2_terms(sample_x, y, spec, sample_rows, span)
    train_log = [mmd2_from_terms(kxx_mean, kyy, kxy_mean, weights)]
    if cfg.epochs > 0:
        weights = simplex_weights(kyy, kxy_mean)
    size = n // cfg.m  # at least 1, since m <= n
    for _ in range(cfg.epochs):
        order = rng_batches.permutation(n)
        for lo in range(0, n, size):
            batch = order[lo:lo + size]
            grad = mmd2_grad_y(frames[batch] if span is None else batch, y, spec, weights,
                               frame_rows[:, batch], span)
            y = y - LEARNING_RATE * grad - LEARNING_RATE * cfg.weight_decay * y
        kyy, kxy_mean = mmd2_terms(sample_x, y, spec, sample_rows, span)
        weights = simplex_weights(kyy, kxy_mean, start=weights)
        train_log.append(mmd2_from_terms(kxx_mean, kyy, kxy_mean, weights))
    if span is not None:
        y = y[:, :n] @ frames if cfg.epochs > 0 else init_uniform_means(frames, cfg.m)
    return Approximation(prototypes=y, spec=spec, train_log=train_log, weights=weights)


def assign(v: VideoFeatures, approx: Approximation) -> Segmentation:
    """Label each frame by the prototype contributing most to the kernel mean
    of the approximation at that frame, ``argmax_j w_j k(frame, y_j)``.

    Under uniform weights (an untrained approximation) this is the most
    kernel-similar prototype. A prototype of zero weight never wins, even
    where every kernel value is negative (the NTK can be). Ties break to the
    lowest index. Features and prototypes of different widths are the
    ``ShapeError`` of ``kernel_matrix``.
    """
    sims = kernel_matrix(v.frames, approx.prototypes, approx.spec)
    sims = np.where(approx.weights > 0.0, sims * approx.weights, -np.inf)
    return Segmentation.from_labels(np.argmax(sims, axis=1))


@dataclass(frozen=True)
class Profile:
    """Preprocessing profile: smoothing factor and optional normalization.

    ``smooth_s <= 0`` disables smoothing. The pipeline order is fixed:
    smooth first, then normalize.
    """

    smooth_s: float
    normalize: bool = False

    def __post_init__(self):
        if not math.isfinite(self.smooth_s):
            raise ValueError(f"smoothing factor smooth_s must be finite, got {self.smooth_s}")


PROFILES = {
    "long": Profile(smooth_s=2.5),
    "short": Profile(smooth_s=1.5),
    "synthetic": Profile(smooth_s=0.0),
}


def preprocess_video(v: VideoFeatures, cfg_m: int, profile: Profile) -> VideoFeatures:
    if profile.smooth_s > 0:
        v = temporal_smooth(v, profile.smooth_s, cfg_m)
    if profile.normalize:
        v = l2_normalize_rows(v)
    return v


def segment_video(v: VideoFeatures, cfg: TrainConfig,
                  profile: Profile = PROFILES["synthetic"]) -> tuple[Approximation, Segmentation]:
    """Preprocess, learn the approximation, and segment one video."""
    prepped = preprocess_video(v, cfg.m, profile)
    approx = train_approximation(prepped, cfg)
    return approx, assign(prepped, approx)
