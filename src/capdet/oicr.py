"""Instance refinement across a chain of heads.

Head k is supervised by head k-1: for each mentioned class, the region
where the previous head scores highest becomes a seed, every region that
overlaps the seed box by at least tau inherits the class label with the
seed's score as its weight (OICR's seed-score weighting), and everything
else is labeled background. Head 1's predecessor is the image-evidence
block, normalized into a distribution over regions per class (a monotone
per-class transform, so it picks the same seeds as the raw evidence
scores). A region several classes claim keeps the class whose seed scored
highest, the lowest class on a tie.

Attribute heads join the chain one step late: at head 1 each class's
evidence seed box is labeled with the class's attribute values, trained
by plain cross-entropy on those boxes only. From head 2 on, each
(class, attribute) pair seeds at the region maximizing the previous
head's object-attribute product, propagates by box overlap like the
object labels, and the cross-entropy at head k applies to both the
object and the attribute head, keeping the two coupled.

Nothing orders the heads' seeding within a step, so every head is seeded
at once from the stacked previous-head scores, and the refinement terms
of all heads are one gather for the object term and one np.add.at per
coupled factor. The overlap mask (IoU >= tau between every pair of a
scene's boxes) is built once per scene-step and shared by every head.
The refinement terms also score stacked scores (leading axes, as
weakloss describes) against one frozen PseudoLabels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import iou_matrix
from .scorenet import Scores, clamp_prob, softmax_cols
from .weakloss import Supervision


@dataclass(frozen=True)
class PseudoLabels:
    """Every head's frozen supervision, head first.

    A coupled assignment (head, region, class, column) asks the head to
    explain the class and the attribute column at the region; they are
    ordered by head, then by pair, then by region.
    """

    labels: np.ndarray  # (K, m) class index, background = num_classes
    weights: np.ndarray  # (K, m)
    seeds: np.ndarray  # (K, |O|) seed region of each mentioned class
    heads: np.ndarray  # (n,) per coupled assignment: its head,
    regions: np.ndarray  # region,
    classes: np.ndarray  # class
    columns: np.ndarray  # and attribute column


def initial_scores(per_region: np.ndarray) -> np.ndarray:
    """Head 0: the evidence product normalized over regions per class."""
    return softmax_cols(per_region)


def build_pseudo_labels(scores: Scores, sup: Supervision, boxes: np.ndarray, tau: float) -> PseudoLabels | None:
    """Freeze every head's supervision from its predecessor's current scores.

    The result is pure data: recomputing losses against it involves no
    argmax over live scores, which is what a gradient check needs. A scene
    with no mentioned class has no refinement supervision (None).
    """
    classes = sup.classes
    if not classes.size:
        return None
    near = iou_matrix(boxes, boxes) >= tau
    # (K, m, |O|): head k's predecessor scores for the mentioned classes
    prev = np.concatenate([initial_scores(scores.per_region)[None], scores.objects[:-1, :, : sup.num_classes]])
    prev = prev[:, :, classes]
    seeds = np.argmax(prev, axis=1)
    # claims[k, o, i]: head k's seed score of class o where region i overlaps
    # that seed; argmax keeps the first maximum, so the lowest class wins a tie
    reach = near.T[seeds]
    claims = np.where(reach, prev.max(axis=1)[:, :, None], -np.inf)
    claimed = reach.any(axis=1)  # (K, m)
    labels = np.where(claimed, classes[np.argmax(claims, axis=1)], sup.num_classes)
    weights = np.where(claimed, claims.max(axis=1), 1.0)

    # head 1 labels each pair at its class's evidence seed; later heads seed
    # each pair at the previous head's best product and spread it by overlap
    pair_classes, pair_columns = sup.pair_classes, sup.pair_columns
    product = scores.objects[:-1, :, pair_classes] * scores.attributes[:-1, :, pair_columns]
    later, pair, region = np.nonzero(near.T[np.argmax(product, axis=1)])
    return PseudoLabels(
        labels=labels,
        weights=weights,
        seeds=seeds,
        heads=np.concatenate([np.zeros(pair_classes.size, dtype=int), later + 1]),
        regions=np.concatenate([seeds[0, np.searchsorted(classes, pair_classes)], region]),
        classes=np.concatenate([pair_classes, pair_classes[pair]]),
        columns=np.concatenate([pair_columns, pair_columns[pair]]),
    )


def refinement_terms(scores: Scores, pseudo: PseudoLabels | None) -> tuple[np.ndarray, np.ndarray]:
    """Per-head loss values (..., K) plus their gradient with respect to scores.heads.

    Head k's value is the weighted cross-entropy -(1/m) sum w_i log s[i, label_i]
    plus, when it has coupled assignments, their cross-entropy averaged per
    assignment: the attribute factor at every head, the object factor from
    head 2 on (head 1's object head already has its own labels). Assignments
    sharing a score cell add up their gradients there. Scores with leading
    axes are scored slice by slice against the same frozen supervision.
    """
    grad = np.zeros_like(scores.heads)
    grad_objects, grad_attributes = scores.split(grad)
    *lead, k, m, _ = scores.objects.shape
    if pseudo is None:
        return np.zeros((*lead, k)), grad
    if pseudo.labels.shape != (k, m):
        raise ValueError(f"pseudo-labels cover {pseudo.labels.shape} (head, region) cells, scores have {(k, m)}")
    cells = (..., np.arange(k)[:, None], np.arange(m), pseudo.labels)
    # a gather behind a leading ... puts that axis innermost in memory; in C
    # order, every sum below adds each slice's terms as it would alone
    p = np.ascontiguousarray(clamp_prob(scores.objects[cells]))
    grad_objects[cells] += -pseudo.weights / (m * p)  # one cell per (head, region)
    values = -np.sum(pseudo.weights * np.log(p), axis=-1) / m

    h, r = pseudo.heads, pseudo.regions
    if h.size:
        counts = np.bincount(h, minlength=k)
        n = counts[h]
        at = (..., h, r, pseudo.columns)
        p_attr = np.ascontiguousarray(clamp_prob(scores.attributes[at]))
        # np.add.at, not fancy-index assignment: cells hit twice must accumulate
        np.add.at(grad_attributes, at, -1.0 / (n * p_attr))
        both = h > 0
        at = (..., h[both], r[both], pseudo.classes[both])
        p_obj = np.ascontiguousarray(clamp_prob(scores.objects[at]))
        # summed in its own zero array and added once: accumulating straight
        # onto the refinement gradient would round differently
        coupled_objects = np.zeros_like(grad_objects)
        np.add.at(coupled_objects, at, -1.0 / (n[both] * p_obj))
        grad_objects += coupled_objects
        log_attr, log_obj = np.log(p_attr), np.log(p_obj)
        # assignments come head by head, so each head's are one slice; the
        # object factors skip head 1's
        ends = np.cumsum(counts)
        for j in np.flatnonzero(counts):
            start, end = ends[j] - counts[j], ends[j]
            total = -log_attr[..., start:end].sum(axis=-1)
            if j > 0:
                total -= log_obj[..., start - counts[0] : end - counts[0]].sum(axis=-1)
            values[..., j] += total / counts[j]
    return values, grad
