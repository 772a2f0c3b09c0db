"""Feature-file ingestion, per-frame L2 normalization, and temporal
Gaussian smoothing.

File formats
------------
Features: UTF-8 text, one frame per non-blank line, floats split on commas
if the line has any, else on whitespace; an empty field, a '_' and a
non-ASCII character are errors, and so is a line holding one of the ASCII
separator controls U+001C..U+001F, blank or not.
Labels: UTF-8 text, one token per non-blank line; when every token is an
integer (an optional sign and ASCII digits) they are used as-is and must fit
int64, otherwise all tokens are interned to integers in first-appearance
order.
A leading byte-order mark is not data in either file.

Two readers parse a feature file. ``np.loadtxt`` reads a well-formed ASCII
file in C with one separator, picked from the first non-blank line. Any
file it does not take goes to the per-line reader, which checks each line
and names the first bad one. Both give the same frames on the files the
first accepts, so a file's frames and errors do not depend on the reader.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, DegenerateInputError, ParseError
from .kernels import sphere_project

__all__ = [
    "VideoFeatures",
    "load_features",
    "load_labels",
    "save_features",
    "save_labels",
    "l2_normalize_rows",
    "temporal_smooth",
]

# Output frames per banded product in ``temporal_smooth``; of 64 to 512, 128 was
# fastest on 2400 x 2352 frames with one BLAS thread.
SMOOTH_BLOCK = 128
# A label token read as an integer. Python's ``int`` also takes '_' digit
# groups and non-ASCII digits, which a label file keeps as names.
INT_TOKEN = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class VideoFeatures:
    """Per-frame feature rows plus optional ground-truth labels."""

    frames: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 1:
            raise ConsistencyError(f"frames must be a nonempty 2-D matrix, got {self.frames.shape}")
        if self.labels is not None and len(self.labels) != self.frames.shape[0]:
            raise ConsistencyError(
                f"{self.name or 'video'}: {self.frames.shape[0]} frames but {len(self.labels)} labels"
            )

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def load_features(path, labels_path=None) -> VideoFeatures:
    """Read a feature file (and optionally a label file) into VideoFeatures.

    Each non-blank line is one frame, split on commas if it has any, else on
    whitespace; every field must parse as a float. A bad or empty field, a
    '_' or non-ASCII character (which the float parser would read as a digit
    group or a digit; a line of Unicode spaces only is not blank), an ASCII
    separator control U+001C..U+001F on any line, blank or not, a width
    other than the first row's and a non-finite value are each a
    ``ParseError`` naming the first line at fault.

    A file of ASCII text whose lines all split on the first non-blank line's
    separator, with finite values, is read by one ``np.loadtxt`` call; every
    other file by ``_read_features_per_line``, which gives the same frames
    on the files ``np.loadtxt`` takes.
    """
    path = Path(path)
    frames = None
    try:
        # The open handle, never the path: np.loadtxt decompresses a path
        # ending in ".gz", ".bz2" or ".xz". ASCII, because decoded as UTF-8
        # it strips NBSP and other Unicode spaces around a field.
        with open(path, "r", encoding="ascii") as fh:
            first = next((line for line in fh if line.strip()), None)
            if first is not None:
                fh.seek(0)
                frames = np.loadtxt(_without_separator_controls(fh), dtype=np.float64,
                                    delimiter="," if "," in first else None, comments=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError is a ValueError
        pass
    if frames is None or not np.all(np.isfinite(frames)):
        frames = _read_features_per_line(path)
    labels = load_labels(labels_path) if labels_path is not None else None
    return VideoFeatures(frames=frames, labels=labels, name=path.stem.removesuffix("_features"))


def _without_separator_controls(lines):
    """Yield the lines, raising ValueError at one holding U+001C..U+001F:
    np.loadtxt strips these around a comma-separated field, and the
    per-line reader rejects any line that holds one."""
    for line in lines:
        if _has_separator_control(line):
            raise ValueError("an ASCII separator control character")
        yield line


def _has_separator_control(line: str) -> bool:
    """Whether ``line`` holds one of U+001C..U+001F, which str.split() and
    str.strip() take for whitespace and the float cast does not. Four
    substring tests, which scan a long line much faster than a regex."""
    return "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line


def _read_features_per_line(path: Path) -> np.ndarray:
    """The frames of a feature file, each line checked where it is read, so
    the first bad line is the one a ``ParseError`` names."""
    rows: list[np.ndarray] = []
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


def load_labels(path) -> np.ndarray:
    """Read a label file: one token per non-blank line. The tokens are
    integers when every one matches ``INT_TOKEN``, else names. An integer
    token outside int64, and a file that is not UTF-8, are each a
    ``ParseError`` naming the file (and the line, for the integer)."""
    path = Path(path)
    tokens, linenos = [], []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if tok := line.strip():
                    tokens.append(tok)
                    linenos.append(lineno)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    if not tokens:
        raise ParseError(f"{path}: no labels found")
    if not all(INT_TOKEN.fullmatch(t) for t in tokens):
        interned: dict[str, int] = {}
        for t in tokens:
            interned.setdefault(t, len(interned))
        return np.asarray([interned[t] for t in tokens], dtype=np.int64)
    ints = [int(t) for t in tokens]
    for lineno, value in zip(linenos, ints):
        if not -2**63 <= value < 2**63:
            raise ParseError(f"{path}:{lineno}: label {value} is outside int64")
    return np.asarray(ints, dtype=np.int64)


def save_features(path, frames: np.ndarray) -> None:
    """Write frames one per line at 17 significant digits (lossless reload)."""
    with open(path, "w", encoding="utf-8") as fh:  # np.savetxt would gzip a path ending in ".gz"
        np.savetxt(fh, np.asarray(frames, dtype=np.float64), fmt="%.17g", delimiter=",")


def save_labels(path, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")


def l2_normalize_rows(v: VideoFeatures) -> VideoFeatures:
    """Scale every frame to unit Euclidean norm."""
    try:
        normalized = sphere_project(v.frames)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"{v.name or 'video'}: {exc}") from None
    return replace(v, frames=normalized)


def smoothing_window(s: float, n_frames: int, m: int) -> int:
    """Window size ~ s * N / m, at least one frame; a window that is not
    finite (s inf or nan, or s * N overflowing) is a ValueError."""
    if s <= 0:
        raise ValueError("smoothing factor s must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    w = s * n_frames / m
    if not math.isfinite(w):
        raise ValueError(f"smoothing factor s={s} gives a non-finite window s * N / m")
    return max(1, round(w))


def temporal_smooth(v: VideoFeatures, s: float, m: int) -> VideoFeatures:
    """Gaussian smoothing along time, one banded matrix product per block of
    ``SMOOTH_BLOCK`` output frames.

    The kernel spans a window of about s * N / m frames with sigma = w / 4,
    truncated at the window edge, normalized to sum 1; the sequence is
    reflect-padded so boundary frames keep full weight. Row i of the
    Toeplitz ``band`` holds the K taps from column i, so output frames
    ``lo .. lo + b - 1`` are ``band[:b, :b + K - 1] @ padded[lo : lo + b + K - 1]``;
    the short last block uses the band's top-left corner. Labels pass through.
    """
    w = smoothing_window(s, v.n_frames, m)
    radius = min((w - 1) // 2, v.n_frames - 1)
    if radius < 1:
        return replace(v, frames=v.frames.copy())
    sigma = w / 4.0
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    padded = np.pad(v.frames, ((radius, radius), (0, 0)), mode="reflect")
    rows = np.arange(SMOOTH_BLOCK)[:, None]
    band = np.zeros((SMOOTH_BLOCK, SMOOTH_BLOCK + 2 * radius))
    band[rows, rows + np.arange(kernel.size)] = kernel
    smoothed = np.empty_like(v.frames)
    for lo in range(0, v.n_frames, SMOOTH_BLOCK):
        b = min(SMOOTH_BLOCK, v.n_frames - lo)
        np.matmul(band[:b, :b + 2 * radius], padded[lo:lo + b + 2 * radius], out=smoothed[lo:lo + b])
    return replace(v, frames=smoothed)
