"""Losses for caption-level supervision.

Three ingredients. A per-class MIL term rewards the single best region
for each mentioned class. A coupled term does the same for each
(class, attribute) pair but maximizes the product of the two scores at
one region, so the chosen region must explain the object and its
attribute simultaneously; its maximizing region can differ from the
object-only one, which is the entire point of coupling rather than
summing two independent maxima. Both terms are averaged over the
mentioned classes, so the coupled term sums its pairs and divides by the
class count. An image-evidence term treats the per-class image scores as
independent binary predictions of mention.

Attribute scores are one (m, V) array per head, a pair's column given
by the model's value_columns. Both maxima run over all classes (or
pairs) at once: one argmax over the gathered columns, then the coupled
term scatters its gradients with np.add.at in pair order, so pairs
meeting in one cell add up.

Every function returns the loss value together with its gradient with
respect to the score arrays it consumed; parameter gradients are the
score network's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .scorenet import Scores, clamp_prob
from .textgraph import LabelSet


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights for the total loss; the coupled term may be switched off entirely."""

    lambda1: float = 0.5
    lambda2: float = 0.01

    def __post_init__(self) -> None:
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError(f"loss weights must be non-negative, got ({self.lambda1}, {self.lambda2})")


def object_mil_loss(
    scores: np.ndarray, objects: Iterable[int]
) -> tuple[float, np.ndarray, dict[int, int]]:
    """-(1/|O|) sum over mentioned classes of log of the best region score.

    Gradient is nonzero only at each class's maximizing region; ties go to
    the lowest region index. Empty O short-circuits to zero.
    """
    scores = np.asarray(scores, dtype=float)
    grad = np.zeros_like(scores)
    mentioned = sorted(set(int(c) for c in objects))
    if not mentioned:
        return 0.0, grad, {}
    num_classes = scores.shape[1] - 1  # last column is background
    if not 0 <= mentioned[0] <= mentioned[-1] < num_classes:
        raise ValueError(f"class index out of range for {num_classes} classes: {mentioned}")
    p = np.asarray(clamp_prob(scores[:, mentioned]))
    rows = np.argmax(p, axis=0)
    best = p[rows, np.arange(len(mentioned))]
    grad[rows, mentioned] = -1.0 / best  # one cell per class, so none is hit twice
    grad /= len(mentioned)
    chosen = {c: int(i) for c, i in zip(mentioned, rows)}
    return float(-np.sum(np.log(best)) / len(mentioned)), grad, chosen


def entanglement_loss(
    obj_scores: np.ndarray,
    attr_scores: np.ndarray,
    labels: LabelSet,
    value_columns: Mapping[tuple[str, str], int],
) -> tuple[float, np.ndarray, np.ndarray, dict[tuple[int, str, str], int]]:
    """Coupled object-attribute MIL: per pair, maximize the product at one region.

    For each mentioned class c and each of its attribute pairs (a, v),
    the loss is -log max over regions of obj[:, c] * attr[:, col(a, v)].
    Both factors receive gradient at the maximizing region. The sum over
    pairs is normalized by |O|, the number of mentioned classes.
    """
    obj_scores = np.asarray(obj_scores, dtype=float)
    attr_scores = np.asarray(attr_scores, dtype=float)
    grad_obj = np.zeros_like(obj_scores)
    grad_attr = np.zeros_like(attr_scores)
    mentioned = sorted(labels.objects)
    pairs = [(c, cat, val) for c in mentioned for cat, val in labels.pairs_for(c)]
    if not pairs:
        return 0.0, grad_obj, grad_attr, {}
    num_classes = obj_scores.shape[1] - 1
    for c, cat, val in pairs:
        if not 0 <= c < num_classes:
            raise ValueError(f"class index {c} out of range for {num_classes} classes")
        if (cat, val) not in value_columns:
            raise ValueError(f"no attribute column for {cat!r} = {val!r}")
    classes = [c for c, _, _ in pairs]
    cols = [value_columns[cat, val] for _, cat, val in pairs]
    p_obj = np.asarray(clamp_prob(obj_scores[:, classes]))
    p_attr = np.asarray(clamp_prob(attr_scores[:, cols]))
    rows = np.argmax(p_obj * p_attr, axis=0)
    at = (rows, np.arange(len(pairs)))
    best_obj, best_attr = p_obj[at], p_attr[at]
    # np.add.at, not fancy-index assignment: pairs that meet in one cell must accumulate
    np.add.at(grad_obj, (rows, classes), -1.0 / best_obj)
    np.add.at(grad_attr, (rows, cols), -1.0 / best_attr)
    denom = float(len(mentioned))
    grad_obj /= denom
    grad_attr /= denom
    total = -np.sum(np.log(best_obj) + np.log(best_attr)) / denom
    return float(total), grad_obj, grad_attr, {pair: int(i) for pair, i in zip(pairs, rows)}


def mid_loss(image_level: np.ndarray, objects: Iterable[int], num_classes: int) -> tuple[float, np.ndarray]:
    """Binary cross-entropy of the image-level scores against mention labels.

    Returns the gradient with respect to the image-level scores; pushing
    it back through the sigmoid, the region sum, and both streams is done
    by the score network's backward pass.
    """
    y = np.asarray(clamp_prob(image_level))
    if y.shape != (num_classes,):
        raise ValueError(f"expected {num_classes} image-level scores, got shape {y.shape}")
    mentioned = set(int(c) for c in objects)
    if any(not 0 <= c < num_classes for c in mentioned):
        raise ValueError(f"class index out of range for {num_classes} classes: {sorted(mentioned)}")
    positive = np.zeros(num_classes, dtype=bool)
    positive[sorted(mentioned)] = True
    total = -(np.log(y[positive]).sum() + np.log1p(-y[~positive]).sum())
    grad = np.where(positive, -1.0 / y, 1.0 / (1.0 - y))
    return float(total), grad


@dataclass
class LossReport:
    """One training step's loss breakdown, score-space gradients, and region choices."""

    l_obj: float
    l_entang: float
    l_mid: float
    l_oicr: tuple[float, ...]
    l_total: float
    lambda1: float
    lambda2: float
    grad: np.ndarray  # (m, K(C + 1) + K * V), laid out like Scores.heads
    grad_image: np.ndarray  # (C,) with respect to the image-level scores
    argmax_objects: dict[int, int] = field(default_factory=dict)
    argmax_pairs: dict[tuple[int, str, str], int] = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "l_obj": self.l_obj,
            "l_entang": self.l_entang,
            "l_mid": self.l_mid,
            "l_oicr": list(self.l_oicr),
            "l_total": self.l_total,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "argmax_objects": {str(c): i for c, i in sorted(self.argmax_objects.items())},
            "argmax_pairs": {f"{c}:{cat}:{val}": i for (c, cat, val), i in sorted(self.argmax_pairs.items())},
        }


def total_loss(
    scores: Scores,
    labels: LabelSet,
    weights: LossWeights,
    value_columns: Mapping[tuple[str, str], int],
    oicr_values: Sequence[float] = (),
    oicr_grads: np.ndarray | None = None,
) -> LossReport:
    """Mix the terms: evidence + lambda1 * MIL + lambda2 * coupled + refinement terms.

    The MIL and coupled terms read the first head's scores; refinement
    terms for every head arrive precomputed. lambda2 == 0 skips the
    coupled term entirely rather than multiplying it by zero.
    """
    num_classes = scores.image_level.shape[0]
    grad = np.zeros_like(scores.heads)
    grad_objects, grad_attributes = scores.split(grad)

    l_obj, g_obj, argmax_objects = object_mil_loss(scores.objects[0], labels.objects)
    grad_objects[0] += weights.lambda1 * g_obj

    l_entang = 0.0
    argmax_pairs: dict[tuple[int, str, str], int] = {}
    if weights.lambda2 > 0.0:
        l_entang, g_eobj, g_eattr, argmax_pairs = entanglement_loss(
            scores.objects[0], scores.attributes[0], labels, value_columns
        )
        grad_objects[0] += weights.lambda2 * g_eobj
        grad_attributes[0] += weights.lambda2 * g_eattr

    l_mid, grad_image = mid_loss(scores.image_level, labels.objects, num_classes)

    if oicr_grads is not None:
        grad += oicr_grads

    l_total = l_mid + weights.lambda1 * l_obj + weights.lambda2 * l_entang + float(np.sum(oicr_values))
    return LossReport(
        l_obj=l_obj,
        l_entang=l_entang,
        l_mid=l_mid,
        l_oicr=tuple(float(v) for v in oicr_values),
        l_total=float(l_total),
        lambda1=weights.lambda1,
        lambda2=weights.lambda2,
        grad=grad,
        grad_image=grad_image,
        argmax_objects=argmax_objects,
        argmax_pairs=argmax_pairs,
    )
