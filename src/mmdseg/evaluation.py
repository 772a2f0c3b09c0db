"""Hungarian matching of predicted to ground-truth classes and the metric
suite: MoF, IoU, F1, boundary accuracy, with optional background exclusion.

Matching is per video: the (predicted x ground-truth) frame-overlap table is
padded to square and solved exactly, so every metric is invariant to how the
predicted labels happen to be numbered. MoF, IoU and F1 are read from that
same table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, EmptyEvalError

__all__ = [
    "EvalReport",
    "solve_assignment",
    "boundary_accuracy",
    "evaluate",
    "aggregate_rows",
]


def solve_assignment(cost: np.ndarray) -> list[int]:
    """Exact minimum-cost assignment on a square matrix (O(n^3) potentials).

    Returns ``rows`` with rows[j] = row assigned to column j.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"solve_assignment needs a square matrix, got {cost.shape}")
    n = cost.shape[0]
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)          # match[j] = row occupying column j (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [np.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = np.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return [match[j] - 1 for j in range(1, n + 1)]


def _clean_pair(pred, gt, exclude_gt):
    pred = np.asarray(pred, dtype=np.int64).ravel()
    gt = np.asarray(gt, dtype=np.int64).ravel()
    if pred.size != gt.size or pred.size == 0:
        raise ConsistencyError(f"pred has {pred.size} frames but gt has {gt.size}")
    if exclude_gt is not None:
        keep = gt != exclude_gt
        if not np.any(keep):
            raise EmptyEvalError(f"no frames left after excluding class {exclude_gt}")
        pred, gt = pred[keep], gt[keep]
    return pred, gt


def _scores(pred, gt):
    """Label map, MoF, IoU, F1 and the per-class scores of a cleaned pair,
    all from its one (predicted x ground-truth) overlap table.

    ``np.unique(..., return_inverse=True)`` gives each side's sorted classes
    and every frame's index among them, and the table counts the index
    pairs. The table, padded to square, is matched to maximize the total
    overlap. For a matched class the intersection is the table cell and the
    union is its row sum + column sum - cell. MoF is the sum of the matched
    intersections over the evaluated frames, so a frame of an unmatched
    predicted class is never correct, whatever its ground-truth label.
    """
    pred_classes, p_idx = np.unique(pred, return_inverse=True)
    gt_classes, g_idx = np.unique(gt, return_inverse=True)
    table = np.zeros((pred_classes.size, gt_classes.size), dtype=np.int64)
    np.add.at(table, (p_idx, g_idx), 1)
    k = max(table.shape)
    padded = np.zeros((k, k), dtype=np.float64)
    padded[: table.shape[0], : table.shape[1]] = table
    rows = solve_assignment(-padded)[: gt_classes.size]  # predicted row per gt column
    n_pred, n_gt = table.sum(axis=1), table.sum(axis=0)
    label_map: dict[int, int | None] = dict.fromkeys(pred_classes.tolist())
    per_class = {}
    correct = 0
    for j, (g, r) in enumerate(zip(gt_classes.tolist(), rows)):
        inter, pred_count = 0, 0
        if r < pred_classes.size:
            label_map[int(pred_classes[r])] = g
            inter, pred_count = int(table[r, j]), int(n_pred[r])
        gt_count = int(n_gt[j])
        correct += inter
        precision = inter / pred_count if pred_count else 0.0
        recall = inter / gt_count
        per_class[g] = {
            "precision": precision,
            "recall": recall,
            "f1": 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0,
            "iou": inter / (pred_count + gt_count - inter),
        }
    return (label_map, correct / gt.size,
            float(np.mean([c["iou"] for c in per_class.values()])),
            float(np.mean([c["f1"] for c in per_class.values()])),
            per_class)


def _boundaries(labels) -> np.ndarray:
    labels = np.asarray(labels)
    return np.flatnonzero(labels[1:] != labels[:-1]) + 1


def boundary_accuracy(pred, gt, tolerance: int = 3) -> float:
    """Fraction of ground-truth transitions matched by a predicted transition
    within +-tolerance frames; each predicted transition may be used once.

    Ground-truth boundaries are visited in increasing order and greedily take
    the nearest unused predicted boundary: ``argmin`` over the gaps to the
    predicted boundaries, in ascending order, so ties go left. A used
    boundary's gap is set to inf, and so is a sentinel that keeps ``argmin``
    defined when the prediction has no boundary. The tolerance is capped at
    the frame count, which no gap exceeds, so a tolerance of any size
    compares with the float gaps. 1.0 when the ground truth has no
    transitions.
    """
    pred = np.asarray(pred).ravel()
    gt = np.asarray(gt).ravel()
    if pred.size != gt.size or pred.size == 0:
        raise ConsistencyError(f"pred has {pred.size} frames but gt has {gt.size}")
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    gt_bounds = _boundaries(gt)
    if gt_bounds.size == 0:
        return 1.0
    tolerance = min(tolerance, gt.size)
    pred_bounds = np.append(_boundaries(pred), np.inf)
    detected = 0
    for g in gt_bounds:
        gaps = np.abs(pred_bounds - g)
        k = int(np.argmin(gaps))
        if gaps[k] <= tolerance:
            pred_bounds[k] = np.inf
            detected += 1
    return detected / gt_bounds.size


@dataclass(frozen=True)
class EvalReport:
    """All metrics for one video, plus the label map behind them."""

    mof: float
    iou: float
    f1: float
    boundary_accuracy: float | None
    label_map: dict[int, int | None]
    per_class: dict[int, dict[str, float]]
    excluded_background: int | None = None

    def to_dict(self) -> dict:
        return {
            "mof": self.mof,
            "iou": self.iou,
            "f1": self.f1,
            "boundary_accuracy": self.boundary_accuracy,
            "label_map": {str(k): v for k, v in sorted(self.label_map.items())},
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
            "excluded_background": self.excluded_background,
        }


def evaluate(seg, gt, exclude_gt: int | None = None, boundary_tol: int | None = 3) -> EvalReport:
    """Match predictions to ground truth and compute every metric.

    ``seg`` may be a Segmentation or a raw label sequence. Background
    exclusion applies to matching, MoF, IoU and F1; boundary accuracy is
    computed on the raw sequences (or skipped when ``boundary_tol`` is None).
    """
    pred_labels = np.asarray(getattr(seg, "frame_labels", seg), dtype=np.int64).ravel()
    gt = np.asarray(gt, dtype=np.int64).ravel()
    label_map, mof_value, iou_value, f1_value, per_class = _scores(
        *_clean_pair(pred_labels, gt, exclude_gt))
    return EvalReport(
        mof=mof_value,
        iou=iou_value,
        f1=f1_value,
        boundary_accuracy=(boundary_accuracy(pred_labels, gt, boundary_tol)
                           if boundary_tol is not None else None),
        label_map=label_map,
        per_class=per_class,
        excluded_background=exclude_gt,
    )


def aggregate_rows(rows: list[dict]) -> dict:
    """Unweighted per-video mean of every numeric metric column."""
    if not rows:
        raise ValueError("nothing to aggregate")
    keys = [k for k in rows[0] if isinstance(rows[0][k], (int, float)) and not isinstance(rows[0][k], bool)]
    return {k: float(np.mean([r[k] for r in rows if r.get(k) is not None])) for k in keys}
