"""Output checks made apart from the program.

MoF and F1 are recomputed here by enumerating every one-to-one matching of
predicted to ground-truth classes, with no code from ``mmdseg.evaluation``.
The other checks test properties the method must have. Every check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

# Matchings are enumerated, so the class count must stay small.
MAX_MATCH_CLASSES = 8


def _overlaps(pred, gt):
    pred_classes = sorted(set(int(p) for p in pred))
    gt_classes = sorted(set(int(g) for g in gt))
    table = Counter(zip((int(p) for p in pred), (int(g) for g in gt)))
    return pred_classes, gt_classes, table


def best_matchings(pred, gt):
    """(best overlap, [matchings]) over every one-to-one map of predicted to
    ground-truth classes; a matching is a dict pred class -> gt class."""
    if len(pred) != len(gt) or len(pred) == 0:
        raise ValueError(f"pred has {len(pred)} frames but gt has {len(gt)}")
    pred_classes, gt_classes, table = _overlaps(pred, gt)
    k = max(len(pred_classes), len(gt_classes))
    if k > MAX_MATCH_CLASSES:
        raise ValueError(f"{k} classes are too many to enumerate")
    best, found = -1, []
    for perm in itertools.permutations(range(k)):
        pairs = {pred_classes[r]: gt_classes[c] for r, c in enumerate(perm)
                 if r < len(pred_classes) and c < len(gt_classes)}
        overlap = sum(table[(p, g)] for p, g in pairs.items())
        if overlap > best:
            best, found = overlap, [pairs]
        elif overlap == best:
            found.append(pairs)
    return best, found


def brute_force_mof(pred, gt) -> float:
    """Fraction of frames whose predicted class, mapped by a best matching,
    equals the ground truth."""
    best, _ = best_matchings(pred, gt)
    return best / len(gt)


def f1_for_matching(pred, gt, matching) -> float:
    """Unweighted mean over ground-truth classes of the per-class F1; a
    class no predicted class maps to scores 0."""
    pred_classes, gt_classes, table = _overlaps(pred, gt)
    n_pred = Counter(int(p) for p in pred)
    n_gt = Counter(int(g) for g in gt)
    inverse = {g: p for p, g in matching.items()}
    scores = []
    for g in gt_classes:
        p = inverse.get(g)
        inter = table[(p, g)] if p is not None else 0
        if inter == 0:
            scores.append(0.0)
            continue
        precision, recall = inter / n_pred[p], inter / n_gt[g]
        scores.append(2 * precision * recall / (precision + recall))
    return sum(scores) / len(scores)


def check_video(name, n_frames, m, epochs, labels, train_log, weights, gt, mof, f1) -> list[str]:
    """Check one segmented video against its ground truth and the method's
    invariants. ``mof`` and ``f1`` are the program's own figures."""
    problems = []
    labels = np.asarray(labels)
    if labels.shape != (n_frames,):
        problems.append(f"{name}: {labels.shape} labels for {n_frames} frames")
    elif labels.min() < 0 or labels.max() >= m:
        problems.append(f"{name}: labels outside [0, {m})")
    if len(train_log) != epochs + 1 or not all(math.isfinite(v) for v in train_log):
        problems.append(f"{name}: train_log is not {epochs + 1} finite values")
    elif train_log[-1] > train_log[0]:
        problems.append(f"{name}: loss rose from {train_log[0]} to {train_log[-1]}")
    if weights is None or np.shape(weights) != (m,):
        problems.append(f"{name}: no weights for {m} prototypes")
    elif np.min(weights) < 0.0 or abs(float(np.sum(weights)) - 1.0) > 1e-9:
        problems.append(f"{name}: weights off the simplex")
    if problems:
        return problems
    best, matchings = best_matchings(labels, gt)
    if abs(best / n_frames - mof) > 1e-12:
        problems.append(f"{name}: MoF {mof} but a brute-force matching gives {best / n_frames}")
    if not any(abs(f1_for_matching(labels, gt, mt) - f1) <= 1e-12 for mt in matchings):
        problems.append(f"{name}: F1 {f1} matches no best matching")
    return problems


RANDM_METRICS = ("mof", "iou", "f1", "boundary_accuracy")


def check_randm_csv(rows, names, n_frames, mbar, max_delta=5) -> list[str]:
    """Check the CSV rows of ``randm`` (a list of dicts of strings).

    Every feature file gets one row, in order, then a mean row equal to the
    mean computed here. Metrics lie in [0, 1], and each ``m_used`` is the
    drawn count ``mbar +- 1..max_delta`` clamped to [1, frames].
    """
    problems = []
    if [r["video"] for r in rows] != list(names) + ["mean"]:
        return [f"randm rows {[r['video'] for r in rows]} do not match files {list(names)}"]
    body, mean_row = rows[:-1], rows[-1]
    for row, n in zip(body, n_frames):
        m_used = int(row["m_used"])
        allowed = {min(max(1, mbar + d), n) for d in range(-max_delta, max_delta + 1) if d != 0}
        if m_used not in allowed:
            problems.append(f"{row['video']}: m_used {m_used} outside the protocol's range")
        for key in RANDM_METRICS:
            if not 0.0 <= float(row[key]) <= 1.0:
                problems.append(f"{row['video']}: {key} {row[key]} outside [0, 1]")
    for key in ("m_used",) + RANDM_METRICS:
        ours = sum(float(r[key]) for r in body) / len(body)
        if abs(ours - float(mean_row[key])) > 1e-9:
            problems.append(f"mean {key} {mean_row[key]} but the rows average {ours}")
    return problems
