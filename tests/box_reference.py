"""Loop references for the array box code, one box pair at a time.

A box here is a plain (x_min, y_min, x_max, y_max) tuple. The tests
compare geometry.iou_matrix, geometry.nms and the evaluation's matching
against these, so they stay as literal as possible. broadcast_iou is the
one array reference: the IoU formula of out-of-place numpy temporaries.
"""

import numpy as np


def pair_iou(a, b):
    """IoU of two boxes; 0.0 when they are disjoint."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def greedy_nms(boxes, scores, threshold):
    """Visit boxes by descending score, lower index first on ties; keep a box unless it overlaps a kept one."""
    order = sorted(range(len(boxes)), key=lambda i: (-float(scores[i]), i))
    kept = []
    for i in order:
        if all(pair_iou(boxes[i], boxes[j]) < threshold for j in kept):
            kept.append(i)
    return kept


def broadcast_iou(a, b):
    """iou_matrix's formula with a new array for every step, for (..., m, 4) and (..., n, 4) arrays."""
    a, b = np.asarray(a, dtype=float)[..., :, None, :], np.asarray(b, dtype=float)[..., None, :, :]
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / (area_a + area_b - inter)
