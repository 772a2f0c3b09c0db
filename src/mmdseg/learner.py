"""End-to-end prototype learner.

A video is summarized by M weighted synthetic frames trained so that their
distribution matches the real frame distribution in kernel space (squared
MMD, minimized by gradient descent with decoupled weight decay over shuffled
batches of ~N/M frames, the weights refit to their MMD optimum before the
first epoch and after every epoch). Real frames are then labeled by the synthetic frame that contributes
most to the approximation's kernel mean at them, and runs of equal labels
become the predicted segments. Nothing forces every prototype to win frames
(a weight may fall to zero), so the number of realized segments can fall
below M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .kernels import KernelSpec, kernel_matrix, resolve_spec
from .mmd import make_batch_plan, mmd2_from_terms, mmd2_grad_y, simplex_weights
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
    "kernel_argmax_labels",
    "assign",
    "segment_video",
]

# Frames used for the per-epoch loss log; bounds the logging cost on long videos.
LOG_FRAME_CAP = 2000


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run: plain gradient steps with
    decoupled weight decay at ``learning_rate``."""

    m: int
    epochs: int = 100
    learning_rate: float = 5e-2
    weight_decay: float = 1e-3
    seed: int = 0
    no_train: bool = False
    kernel: KernelSpec = field(default_factory=KernelSpec)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")


@dataclass(frozen=True)
class Approximation:
    """Learned synthetic frames plus the frozen kernel and the loss trace.

    ``weights`` are the prototypes' masses on the probability simplex;
    ``None`` means uniform (1/M each), the untrained approximation.
    """

    prototypes: np.ndarray
    spec: KernelSpec
    train_log: list[float]
    weights: np.ndarray | None = None


@dataclass(frozen=True)
class Segmentation:
    """Per-frame labels with their run-length encoding."""

    frame_labels: np.ndarray
    segments: list[tuple[int, int, int]]
    n_frames: int

    @classmethod
    def from_labels(cls, labels) -> "Segmentation":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size < 1:
            raise ValueError("labels must be a nonempty 1-D sequence")
        breaks = np.flatnonzero(np.diff(labels)) + 1
        starts = np.concatenate(([0], breaks))
        ends = np.concatenate((breaks, [labels.size]))
        segments = [(int(s), int(e), int(labels[s])) for s, e in zip(starts, ends)]
        return cls(frame_labels=labels, segments=segments, n_frames=int(labels.size))

    def to_dict(self) -> dict:
        return {
            "n_frames": self.n_frames,
            "frame_labels": [int(x) for x in self.frame_labels],
            "segments": [{"start": s, "end": e, "label": l} for s, e, l in self.segments],
        }


def uniform_spans(n: int, m: int) -> list[tuple[int, int]]:
    """Split 0..n into m contiguous spans, longer spans first.

    Shared by the uniform-mean initializer and the uniform baseline so both
    always agree on boundaries.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < m:
        raise ValueError(f"cannot split {n} frames into {m} spans")
    base, extra = divmod(n, m)
    spans = []
    start = 0
    for j in range(m):
        size = base + (1 if j < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


def init_uniform_means(frames: np.ndarray, m: int) -> np.ndarray:
    """Prototype j = mean of the frames in uniform span j."""
    frames = np.asarray(frames, dtype=np.float64)
    return np.stack([frames[s:e].mean(axis=0) for s, e in uniform_spans(frames.shape[0], m)])


def train_approximation(v: VideoFeatures, cfg: TrainConfig) -> Approximation:
    """Learn the synthetic frames for one (already preprocessed) video.

    Freezes the kernel scales on the input frames and initializes prototypes
    to uniform-span means with uniform weights. Each epoch takes one step per
    shuffled batch on the batch's weighted MMD^2 gradient (plain gradient
    descent with decoupled weight decay), then refits the weights to their
    MMD^2 optimum for the new prototypes; training starts from the optimal
    weights of the initial prototypes. ``train_log[0]`` is the loss at
    initialization; one entry follows per epoch. Fully deterministic given
    the seed.
    """
    frames = v.frames
    n = frames.shape[0]
    if cfg.m > n:
        raise ValueError(f"m = {cfg.m} exceeds the {n} available frames")

    spec = resolve_spec(frames, cfg.kernel, make_rng(cfg.seed, 0))
    prototypes = init_uniform_means(frames, cfg.m)

    rng_batches = make_rng(cfg.seed, 1)
    rng_log = make_rng(cfg.seed, 2)
    if n > LOG_FRAME_CAP:
        log_idx = np.sort(rng_log.choice(n, size=LOG_FRAME_CAP, replace=False))
        log_frames = frames[log_idx]
    else:
        log_frames = frames

    # mean(Kxx) does not depend on the prototypes; each epoch's Kyy and Kxy
    # give both the logged loss and the refit weights.
    kxx_mean = kernel_matrix(log_frames, log_frames, spec).mean()

    def loss_terms(p):
        return kernel_matrix(p, p, spec), kernel_matrix(log_frames, p, spec).mean(axis=0)

    weights = np.full(cfg.m, 1.0 / cfg.m)
    kyy, kxy_mean = loss_terms(prototypes)
    train_log = [mmd2_from_terms(kxx_mean, kyy, kxy_mean, weights)]
    epochs = 0 if cfg.no_train else cfg.epochs
    if epochs > 0:
        weights = simplex_weights(kyy, kxy_mean)
    for _ in range(epochs):
        plan = make_batch_plan(n, cfg.m, rng_batches)
        for batch in plan.batches():
            grad = mmd2_grad_y(frames[batch], prototypes, spec, weights)
            prototypes = (prototypes - cfg.learning_rate * grad
                          - cfg.learning_rate * cfg.weight_decay * prototypes)
        kyy, kxy_mean = loss_terms(prototypes)
        weights = simplex_weights(kyy, kxy_mean)
        train_log.append(mmd2_from_terms(kxx_mean, kyy, kxy_mean, weights))
    return Approximation(prototypes=prototypes, spec=spec, train_log=train_log,
                         weights=None if epochs == 0 else weights)


def kernel_argmax_labels(frames: np.ndarray, prototypes: np.ndarray, spec: KernelSpec,
                         weights=None) -> np.ndarray:
    """Label each frame with the prototype of largest ``w_j k(frame, y_j)``.

    Without weights this is the most kernel-similar prototype. A prototype of
    zero weight never wins, even where every kernel value is negative (the
    NTK can be). Ties break to the lowest index.
    """
    sims = kernel_matrix(frames, prototypes, spec)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        sims = np.where(weights > 0.0, sims * weights, -np.inf)
    return np.argmax(sims, axis=1).astype(np.int64)


def assign(v: VideoFeatures, approx: Approximation) -> Segmentation:
    """Label each frame by the prototype contributing most to the kernel mean
    of the approximation at that frame, ``argmax_j w_j k(frame, y_j)``."""
    if v.frames.shape[1] != approx.prototypes.shape[1]:
        raise ShapeError(
            f"assign: features are {v.frames.shape[1]}-D but prototypes are "
            f"{approx.prototypes.shape[1]}-D"
        )
    return Segmentation.from_labels(
        kernel_argmax_labels(v.frames, approx.prototypes, approx.spec, approx.weights))


@dataclass(frozen=True)
class Profile:
    """Preprocessing profile: smoothing factor and optional normalization.

    ``smooth_s <= 0`` disables smoothing. The pipeline order is fixed:
    smooth first, then normalize.
    """

    name: str
    smooth_s: float
    normalize: bool = False


PROFILES = {
    "long": Profile("long", smooth_s=2.5),
    "short": Profile("short", smooth_s=1.5),
    "synthetic": Profile("synthetic", smooth_s=0.0),
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
