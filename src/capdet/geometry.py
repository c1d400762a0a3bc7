"""Axis-aligned box arithmetic on (..., m, 4) arrays: validation, IoU and multi-class greedy NMS.

A box is one row (x_min, y_min, x_max, y_max) of a float array; there is
no box object. Boxes are closed real rectangles in scene units. There is
no pixel grid, so no +1 width/height convention anywhere.

IoU and NMS take leading axes ahead of the box rows, such as the scene
axis of a padded chunk of scenes; NMS then takes a valid mask that marks
each scene's own rows, and padded rows are never kept and never suppress
anything. Pad with a real box, so that IoU never divides 0 by 0.
"""

from __future__ import annotations

import math
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
    """Pairwise IoU between (..., m, 4) and (..., n, 4) arrays in (x_min, y_min, x_max, y_max) order.

    Leading axes broadcast, and each slice is computed as a lone (m, 4)
    by (n, 4) call would, bit for bit. Disjoint pairs get exactly 0.0,
    and iou_matrix(b, a) is exactly the transpose of iou_matrix(a, b).
    It runs in place: at most three (..., m, n) arrays are alive at once.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim < 2 or a.shape[-1] != 4 or b.ndim < 2 or b.shape[-1] != 4:
        raise ValueError("expected (..., m, 4) and (..., n, 4) box arrays")
    a, b = a[..., :, None, :], b[..., None, :, :]
    inter = np.minimum(a[..., 2], b[..., 2])
    inter -= np.maximum(a[..., 0], b[..., 0])
    union = np.minimum(a[..., 3], b[..., 3])
    union -= np.maximum(a[..., 1], b[..., 1])
    np.maximum(inter, 0.0, out=inter)  # np.clip(x, 0.0, None) is np.maximum(x, 0.0)
    inter *= np.maximum(union, 0.0, out=union)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    np.add(area_a, area_b, out=union)
    union -= inter
    return np.divide(inter, union, out=inter)


def nms(boxes: np.ndarray, scores: np.ndarray, threshold: float, valid: np.ndarray | None = None) -> np.ndarray:
    """Greedy NMS per class: keep the highest-scoring box, suppress boxes with IoU >= threshold, repeat.

    boxes is (..., m, 4) and scores (..., m, C), one column per class;
    valid (..., m) marks the real rows (all of them by default). Every
    scene of the leading axes and every class is suppressed together,
    walking the m ranks once. Returns the kept rows as an int array with
    one index column per leading axis, then class and region: (k, 2) for
    one scene, (k, 3) for a stack of scenes. Rows come scene by scene,
    class by class; within a class, in descending score order, and equal
    scores are visited lower region first, so ties are broken
    deterministically. Invalid rows rank last and are never kept, so
    they suppress nothing.
    """
    boxes = np.asarray(boxes, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if scores.ndim < 2 or boxes.shape[:-1] != scores.shape[:-1]:
        raise ValueError(f"need (..., m, C) scores for {boxes.shape[:-1]} boxes, got shape {scores.shape}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    lead, (m, num_classes) = scores.shape[:-2], scores.shape[-2:]
    valid = np.ones(scores.shape[:-1], dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    # the leading axes flattened into one scene axis, then one row per (scene, class) pair
    size = math.prod(lead)
    overlapping = (iou_matrix(boxes, boxes) >= threshold).reshape(size, m, m)
    ranked = np.where(valid[..., None], -scores, np.inf).reshape(size, m, num_classes)
    order = np.argsort(ranked, axis=1, kind="stable").transpose(0, 2, 1).reshape(size * num_classes, m)
    pairs = np.arange(len(order))  # order: (pair, rank) -> region
    survivors = ~overlapping[pairs[:, None] // num_classes, order]  # (pair, rank, region) left alive by a keep
    alive = np.repeat(valid.reshape(size, m), num_classes, axis=0)  # (pair, region)
    kept = np.zeros(alive.shape, dtype=bool)  # (pair, rank)
    for rank in range(m):
        hit = alive[pairs, order[:, rank]]
        kept[:, rank] = hit
        alive[hit] &= survivors[hit, rank]
    kept_pairs, kept_ranks = np.nonzero(kept)
    scenes, classes = np.divmod(kept_pairs, num_classes)
    scene_columns = np.unravel_index(scenes, lead) if lead else ()
    columns = scene_columns + (classes, order[kept_pairs, kept_ranks])
    return np.stack(columns, axis=1)
