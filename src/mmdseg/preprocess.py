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

A feature file is read in one pass. Each line is checked as it is read,
and the rows go, fields joined by commas, to one ``np.loadtxt`` call, which
parses them in C. Only a file that call does not read into finite frames
is walked a second time, to name its first bad line.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ConsistencyError, DegenerateInputError, ParseError
from .kernels import sphere_project

__all__ = [
    "VideoFeatures",
    "load_features",
    "load_labels",
    "save_features",
    "save_labels",
    "save_json",
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

    One pass reads the file: ``_feature_rows`` checks each line and hands
    its row, fields joined by commas, to one ``np.loadtxt`` call, so the
    file streams and any mix of separators reads alike. Only when that call
    raises or gives a non-finite value does ``_name_bad_row`` walk the rows
    again to name the first one at fault.
    """
    path = Path(path)
    rows = (row for _, row in _feature_rows(path))
    first = next(rows, None)  # np.loadtxt warns on a file without rows
    if first is None:
        raise ParseError(f"{path}: no feature rows found")
    try:
        frames = np.loadtxt(itertools.chain((first,), rows), dtype=np.float64, delimiter=",",
                            comments=None, ndmin=2)
    except ValueError:  # ParseError is a ValueError
        frames = None
    finally:
        rows.close()  # a rejected file's pass may stop part way, its file open
    if frames is None or not np.all(np.isfinite(frames)):
        _name_bad_row(path)
    labels = load_labels(labels_path) if labels_path is not None else None
    return VideoFeatures(frames=frames, labels=labels, name=path.stem.removesuffix("_features"))


def _utf8_lines(path: Path):
    """Yield ``(line number, line)`` for each line of a UTF-8 text file. The
    codec drops a leading byte-order mark; a file that does not decode is a
    ``ParseError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def _feature_rows(path: Path):
    """Yield ``(line number, row)`` for each non-blank line of a feature
    file: a line with a comma as it stands, any other with its whitespace
    fields joined by commas. A line holding '_', a non-ASCII character or
    U+001C..U+001F is a ``ParseError`` naming it: str.split() and the float
    parser take U+001C..U+001F and Unicode spaces for whitespace, and the
    float parser reads '_' as a digit group and non-ASCII digits as digits.
    Substring tests scan a long line much faster than a regex."""
    for lineno, line in _utf8_lines(path):
        if ("_" in line or not line.isascii()
                or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line):
            raise ParseError(f"{path}:{lineno}: bad feature value ('_', non-ASCII or U+001C..U+001F)")
        if "," in line:
            yield lineno, line
        elif fields := line.split():
            yield lineno, ",".join(fields)


def _name_bad_row(path: Path) -> NoReturn:
    """Raise the ``ParseError`` for the first row of a file that
    ``np.loadtxt`` did not read into finite frames: a bad value, then a
    width other than the first row's, then a non-finite value. A file
    whose rows all pass is still a ``ParseError``, so this never yields
    frames."""
    width = None
    for lineno, row in _feature_rows(path):
        try:
            values = np.array(row.split(","), dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad feature value ({exc})") from None
        width = width or values.size
        if values.size != width:
            raise ParseError(f"{path}:{lineno}: expected {width} values, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise ParseError(f"{path}:{lineno}: non-finite feature values")
    raise ParseError(f"{path}: np.loadtxt rejected rows that each parse")


def load_labels(path) -> np.ndarray:
    """Read a label file: one token per non-blank line. The tokens are
    integers when every one matches ``INT_TOKEN``, else names. An integer
    token outside int64, and a file that is not UTF-8, are each a
    ``ParseError`` naming the file (and the line, for the integer)."""
    path = Path(path)
    tokens, linenos = [], []
    for lineno, line in _utf8_lines(path):
        if tok := line.strip():
            tokens.append(tok)
            linenos.append(lineno)
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


def save_json(path, obj) -> None:
    """Write ``obj`` as JSON with indent 2, sorted keys and a final newline:
    the one format of every JSON file the package writes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    the short last block uses the band's top-left corner. The output is float64
    whatever the input's dtype. Labels pass through.
    """
    frames = np.asarray(v.frames, dtype=np.float64)
    w = smoothing_window(s, v.n_frames, m)
    radius = min((w - 1) // 2, v.n_frames - 1)
    if radius < 1:
        return replace(v, frames=frames.copy())
    sigma = w / 4.0
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets**2) / (2.0 * sigma**2))
    kernel /= kernel.sum()
    padded = np.pad(frames, ((radius, radius), (0, 0)), mode="reflect")
    rows = np.arange(SMOOTH_BLOCK)[:, None]
    band = np.zeros((SMOOTH_BLOCK, SMOOTH_BLOCK + 2 * radius))
    band[rows, rows + np.arange(kernel.size)] = kernel
    smoothed = np.empty_like(frames)
    for lo in range(0, v.n_frames, SMOOTH_BLOCK):
        b = min(SMOOTH_BLOCK, v.n_frames - lo)
        np.matmul(band[:b, :b + 2 * radius], padded[lo:lo + b + 2 * radius], out=smoothed[lo:lo + b])
    return replace(v, frames=smoothed)
