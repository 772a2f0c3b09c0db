"""Procedural moving-glyph video generator for controlled experiments.

Five action classes, each a fixed (glyph, color, trajectory) triple on a
28x28 RGB canvas. Per video the class order is shuffled, one designated
class may repeat up to ``max_repeats`` times (three by default, at most
five), and every segment length is drawn from a small range, so the
glyph's speed is inversely proportional to its segment length (it always
completes its full trajectory). Frames are flattened to 2352-D rows and
L2-normalized; ground-truth labels ride along.

A video is built in one (N, 28, 28, 3) frame matrix: each run of frames
whose glyph sits at the same centre gets one ``render_glyph`` canvas,
noise is drawn and added a block of rows at a time, and the rows are
L2-normalized in place, so no other frame-sized array is formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import _project
from .numerics import make_rng
from .preprocess import VideoFeatures, save_features, save_json, save_labels

__all__ = [
    "SynthConfig",
    "CANVAS",
    "N_CLASSES",
    "trajectory_points",
    "render_glyph",
    "generate_video",
    "generate_moving5",
    "write_dataset",
    "SPLITS",
]

CANVAS = 28
N_CLASSES = 5
GLYPH_HALF = 10           # glyph patches are 21x21: large glyphs, short travel
REPEAT_CLASS = 1          # the class that may occur more than once per video
_LO, _HI = GLYPH_HALF, CANVAS - 1 - GLYPH_HALF
_MID = (CANVAS - 1) / 2.0

SPLITS = ("train", "val", "test")

COLORS = np.array([
    [1.00, 0.30, 0.25],
    [0.25, 1.00, 0.30],
    [0.30, 0.50, 1.00],
    [1.00, 0.85, 0.20],
    [0.90, 0.30, 1.00],
])

# (start, end) of each class trajectory as (row, col); the glyph traverses
# the full path within its segment.
TRAJECTORIES = (
    ((_LO, _MID), (_HI, _MID)),    # top-to-bottom
    ((_LO, _LO), (_HI, _HI)),      # diagonal
    ((_LO, _HI), (_HI, _LO)),      # inverse-diagonal
    ((_MID, _HI), (_MID, _LO)),    # right-to-left
    ((_MID, _LO), (_MID, _HI)),    # left-to-right
)


def _build_glyphs(half: int = GLYPH_HALF) -> np.ndarray:
    k = 2 * half + 1
    mid = half
    t = max(2, round(k / 6))          # stroke thickness
    g = np.zeros((N_CLASSES, k, k))
    # tall double bar with a base and serif
    g[0, :, mid - t // 2: mid - t // 2 + t] = 1.0
    g[0, k - t:, 2: k - 2] = 1.0
    g[0, 1: 1 + t, mid - t - 1: mid - 1] = 1.0
    # three stacked bars joined on the right
    for r0 in (0, mid - t // 2, k - t):
        g[1, r0: r0 + t, 1: k - 2] = 1.0
    g[1, :, k - 2 - t: k - 2] = 1.0
    # thick X
    for r in range(k):
        for off in range(-(t // 2), t - t // 2):
            for c in (r + off, k - 1 - r + off):
                if 0 <= c < k:
                    g[2, r, c] = 1.0
    # top bar with a thick falling diagonal
    g[3, 0:t, :] = 1.0
    for r in range(t, k):
        c = k - 1 - r
        for off in range(t + 1):
            if 0 <= c + off < k:
                g[3, r, c + off] = 1.0
    # thick hollow ring
    g[4, 0:t, 1: k - 1] = 1.0
    g[4, k - t:, 1: k - 1] = 1.0
    g[4, :, 0:t] = 1.0
    g[4, :, k - t:] = 1.0
    return g


GLYPHS = _build_glyphs()
# Each class's glyph in its color: the (21, 21, 3) patch a frame shows.
PATCHES = GLYPHS[:, :, :, None] * COLORS[:, None, None, :]


def trajectory_points(class_id: int, length: int) -> np.ndarray:
    """(row, col) glyph centers for a segment of ``length`` frames."""
    if length < 1:
        raise ValueError("segment length must be at least 1")
    (r0, c0), (r1, c1) = TRAJECTORIES[class_id]
    t = np.linspace(0.0, 1.0, length) if length > 1 else np.array([1.0])
    return np.stack([r0 + (r1 - r0) * t, c0 + (c1 - c0) * t], axis=1)


def _centre(position) -> tuple[int, int]:
    """The one placement rule: the (row, col) ``position`` rounded by
    Python's ``round`` (a NaN raises) and clamped so the whole patch stays
    on the canvas."""
    return tuple(min(max(round(float(p)), _LO), _HI) for p in position)


def render_glyph(class_id: int, position) -> np.ndarray:
    """A blank frame with the class's patch (its glyph in its color) copied
    in at ``_centre(position)``."""
    frame = np.zeros((CANVAS, CANVAS, 3))
    r, c = _centre(position)
    frame[r - GLYPH_HALF: r + GLYPH_HALF + 1, c - GLYPH_HALF: c + GLYPH_HALF + 1] = PATCHES[class_id]
    return frame


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; defaults reproduce the desk-scale controlled setup."""

    n_videos: int = 50
    seg_len_range: tuple[int, int] = (5, 30)
    max_repeats: int = 3
    seed: int = 0
    noise_std: float = 0.0

    def __post_init__(self):
        if self.n_videos < 1:
            raise ValueError(f"n_videos must be at least 1, got {self.n_videos}")
        if not (1 <= self.seg_len_range[0] <= self.seg_len_range[1]):
            raise ValueError("seg_len_range must satisfy 1 <= lo <= hi")
        # R repeats need R - 1 separators among the N_CLASSES - 1 other classes.
        if not (1 <= self.max_repeats <= N_CLASSES):
            raise ValueError(f"max_repeats must be between 1 and {N_CLASSES}, got {self.max_repeats}")
        if not (0.0 <= self.noise_std < math.inf):  # also false for NaN
            raise ValueError(f"noise_std must be nonnegative and finite, got {self.noise_std}")


def _action_order(rng: np.random.Generator, cfg: SynthConfig) -> list[int]:
    """Shuffled class order with the repeat class occurring 1..max_repeats
    times; reshuffles until no two adjacent segments share a class."""
    repeats = int(rng.integers(1, cfg.max_repeats + 1))
    order = [c for c in range(N_CLASSES) if c != REPEAT_CLASS] + [REPEAT_CLASS] * repeats
    order = np.asarray(order)
    while True:
        perm = rng.permutation(order)
        if not np.any(perm[1:] == perm[:-1]):
            return [int(c) for c in perm]


def generate_video(rng: np.random.Generator, cfg: SynthConfig, name: str = "") -> VideoFeatures:
    """One video: a class order, then one segment length per class, drawn
    from ``rng``; its label plan is ``np.repeat(classes, lengths)``.

    The frames are rows of one (N, CANVAS, CANVAS, 3) matrix: each segment's
    trajectory points are placed by ``_centre``, and each run of points at
    the same centre gets one ``render_glyph`` canvas copied into its rows.
    Pixel noise, if any, is drawn after the plan 32 rows at a time (the
    same bits as one draw of the whole matrix), added in place and clipped
    to [0, 1] in place; ``kernels._project`` then L2-normalizes the rows in
    place, so the returned frames are that one matrix."""
    lo, hi = cfg.seg_len_range
    classes = _action_order(rng, cfg)
    lengths = [int(rng.integers(lo, hi + 1)) for _ in classes]
    frames = np.empty((sum(lengths), CANVAS, CANVAS, 3))
    row = 0
    for class_id, length in zip(classes, lengths):
        for centre, run in itertools.groupby(map(_centre, trajectory_points(class_id, length).tolist())):
            n = len(list(run))
            frames[row: row + n] = render_glyph(class_id, centre)
            row += n
    flat = frames.reshape(row, -1)
    if cfg.noise_std > 0:
        for block in np.split(flat, range(32, row, 32)):
            block += rng.normal(0.0, cfg.noise_std, size=block.shape)
        np.clip(flat, 0.0, 1.0, out=flat)
    labels = np.repeat(np.asarray(classes, dtype=np.int64), lengths)
    return VideoFeatures(frames=_project(flat), labels=labels, name=name)


def generate_moving5(cfg: SynthConfig, split: str = "train") -> list[VideoFeatures]:
    """One split of videos; splits draw from disjoint substreams of the seed."""
    split_idx = SPLITS.index(split)
    return [
        generate_video(make_rng(cfg.seed, split_idx, i), cfg, name=f"{split}_{i:03d}")
        for i in range(cfg.n_videos)
    ]


def write_dataset(out_dir, cfg: SynthConfig) -> dict:
    """Write features/labels text files for all splits plus a manifest,
    ``manifest.json``, written by ``save_json``; returns the manifest.

    Each split's videos are drawn before its directory is made, so a
    configuration that cannot generate (a negative seed) leaves nothing.
    """
    out_dir = Path(out_dir)
    manifest = {"seed": cfg.seed, "videos_per_split": cfg.n_videos, "n_classes": N_CLASSES,
                "noise_std": cfg.noise_std, "splits": {}}
    for split in SPLITS:
        videos = generate_moving5(cfg, split)
        split_dir = out_dir / split
        split_dir.mkdir(parents=True, exist_ok=True)
        entries = []
        for video in videos:
            feat = split_dir / f"{video.name}_features.txt"
            labs = split_dir / f"{video.name}_labels.txt"
            save_features(feat, video.frames)
            save_labels(labs, video.labels)
            entries.append({
                "name": video.name,
                "features": str(feat.relative_to(out_dir)),
                "labels": str(labs.relative_to(out_dir)),
                "n_frames": video.n_frames,
            })
        manifest["splits"][split] = entries
    save_json(out_dir / "manifest.json", manifest)
    return manifest
