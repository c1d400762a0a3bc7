"""Axis-aligned box arithmetic on (m, 4) arrays: validation, IoU and multi-class greedy NMS.

A box is one row (x_min, y_min, x_max, y_max) of a float array; there is
no box object. Boxes are closed real rectangles in scene units. There is
no pixel grid, so no +1 width/height convention anywhere.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def check_boxes(boxes: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """boxes as a float (m, 4) array; ValueError unless every box is finite and non-degenerate."""
    arr = np.asarray(boxes, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"boxes must be (m, 4), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite box coordinate")
    degenerate = ~((arr[:, 0] < arr[:, 2]) & (arr[:, 1] < arr[:, 3]))
    if degenerate.any():
        raise ValueError(f"degenerate box: {tuple(arr[np.argmax(degenerate)].tolist())}")
    return arr


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (m, 4) and (n, 4) arrays in (x_min, y_min, x_max, y_max) order.

    Disjoint pairs get exactly 0.0, and iou_matrix(b, a) is exactly the
    transpose of iou_matrix(a, b).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[1] != 4 or b.ndim != 2 or b.shape[1] != 4:
        raise ValueError("expected (m, 4) and (n, 4) box arrays")
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def nms(boxes: np.ndarray, scores: np.ndarray, threshold: float) -> np.ndarray:
    """Greedy NMS per class: keep the highest-scoring box, suppress boxes with IoU >= threshold, repeat.

    scores is (m, C), one column per class; all classes are suppressed
    together from one IoU matrix, walking the m ranks. Returns the kept
    (class, region) rows as a (k, 2) int array, class by class; within a
    class, rows are in descending score order, and equal scores are
    visited lower region first, so ties are broken deterministically.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or len(boxes) != len(scores):
        raise ValueError(f"need ({len(boxes)}, C) scores for {len(boxes)} boxes, got shape {scores.shape}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    overlapping = iou_matrix(boxes, boxes) >= threshold
    order = np.argsort(-scores, axis=0, kind="stable")  # (rank, class) -> region
    classes = np.arange(scores.shape[1])
    alive = np.ones(scores.T.shape, dtype=bool)  # (class, region)
    kept = np.zeros(scores.T.shape, dtype=bool)  # (class, rank)
    for rank, regions in enumerate(order):
        hit = alive[classes, regions]
        kept[:, rank] = hit
        alive[hit] &= ~overlapping[regions[hit]]
    kept_classes, kept_ranks = np.nonzero(kept)
    return np.stack([kept_classes, order[kept_ranks, kept_classes]], axis=1)
