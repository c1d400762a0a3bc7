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

Every function returns the loss value together with its gradient with
respect to the score arrays it consumed; parameter gradients are the
score network's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .scorenet import MidScores, ScoreGrads, ScoreTensor, clamp_prob
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
    chosen: dict[int, int] = {}
    mentioned = sorted(set(int(c) for c in objects))
    if not mentioned:
        return 0.0, grad, chosen
    num_classes = scores.shape[1] - 1  # last column is background
    total = 0.0
    for c in mentioned:
        if not 0 <= c < num_classes:
            raise ValueError(f"class index {c} out of range for {num_classes} classes")
        col = np.asarray(clamp_prob(scores[:, c]))
        i = int(np.argmax(col))
        chosen[c] = i
        total -= np.log(col[i])
        grad[i, c] -= 1.0 / col[i]
    total /= len(mentioned)
    grad /= len(mentioned)
    return float(total), grad, chosen


def entanglement_loss(
    obj_scores: np.ndarray,
    attr_scores: Mapping[str, np.ndarray],
    labels: LabelSet,
    category_values: Mapping[str, Sequence[str]],
) -> tuple[float, np.ndarray, dict[str, np.ndarray], dict[tuple[int, str, str], int]]:
    """Coupled object-attribute MIL: per pair, maximize the product at one region.

    For each mentioned class c and each of its attribute pairs (a, v),
    the loss is -log max over regions of obj[:, c] * attr_a[:, v]. Both
    factors receive gradient at the maximizing region. The sum over pairs
    is normalized by |O|, the number of mentioned classes.
    """
    obj_scores = np.asarray(obj_scores, dtype=float)
    grad_obj = np.zeros_like(obj_scores)
    grad_attr = {cat: np.zeros_like(np.asarray(arr, dtype=float)) for cat, arr in attr_scores.items()}
    chosen: dict[tuple[int, str, str], int] = {}
    mentioned = sorted(labels.objects)
    pairs = [(c, cat, val) for c in mentioned for cat, val in labels.pairs_for(c)]
    if not mentioned or not pairs:
        return 0.0, grad_obj, grad_attr, chosen
    num_classes = obj_scores.shape[1] - 1
    total = 0.0
    for c, cat, val in pairs:
        if not 0 <= c < num_classes:
            raise ValueError(f"class index {c} out of range for {num_classes} classes")
        if cat not in attr_scores or cat not in category_values:
            raise ValueError(f"no attribute scores for category {cat!r}")
        try:
            vi = list(category_values[cat]).index(val)
        except ValueError:
            raise ValueError(f"unknown value {val!r} for category {cat!r}") from None
        p_obj = np.asarray(clamp_prob(obj_scores[:, c]))
        p_attr = np.asarray(clamp_prob(np.asarray(attr_scores[cat], dtype=float)[:, vi]))
        i = int(np.argmax(p_obj * p_attr))
        chosen[(c, cat, val)] = i
        total -= np.log(p_obj[i]) + np.log(p_attr[i])
        grad_obj[i, c] -= 1.0 / p_obj[i]
        grad_attr[cat][i, vi] -= 1.0 / p_attr[i]
    denom = float(len(mentioned))
    total /= denom
    grad_obj /= denom
    for cat in grad_attr:
        grad_attr[cat] /= denom
    return float(total), grad_obj, grad_attr, chosen


def mid_loss(mid: MidScores, objects: Iterable[int], num_classes: int) -> tuple[float, np.ndarray]:
    """Binary cross-entropy of the image-level scores against mention labels.

    Returns the gradient with respect to the image-level scores; pushing
    it back through the sigmoid, the region sum, and both streams is done
    by the score network's backward pass.
    """
    y = np.asarray(clamp_prob(mid.image_level))
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
    grad: ScoreGrads
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
    scores: ScoreTensor,
    mid: MidScores,
    labels: LabelSet,
    weights: LossWeights,
    category_values: Mapping[str, Sequence[str]],
    oicr_values: Sequence[float] = (),
    oicr_grads: ScoreGrads | None = None,
) -> LossReport:
    """Mix the terms: evidence + lambda1 * MIL + lambda2 * coupled + refinement terms.

    The MIL and coupled terms read the first head's scores; refinement
    terms for every head arrive precomputed. lambda2 == 0 skips the
    coupled term entirely rather than multiplying it by zero.
    """
    num_classes = mid.image_level.shape[0]
    grad = ScoreGrads.zeros_like(scores, mid)

    l_obj, g_obj, argmax_objects = object_mil_loss(scores.objects[0], labels.objects)
    grad.objects[0] += weights.lambda1 * g_obj

    l_entang = 0.0
    argmax_pairs: dict[tuple[int, str, str], int] = {}
    if weights.lambda2 > 0.0:
        l_entang, g_eobj, g_eattr, argmax_pairs = entanglement_loss(
            scores.objects[0], scores.attributes[0], labels, category_values
        )
        grad.objects[0] += weights.lambda2 * g_eobj
        for cat, arr in g_eattr.items():
            grad.attributes[0][cat] += weights.lambda2 * arr

    l_mid, g_y = mid_loss(mid, labels.objects, num_classes)
    grad.mid_image += g_y

    if oicr_grads is not None:
        grad.add(oicr_grads)

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
        argmax_objects=argmax_objects,
        argmax_pairs=argmax_pairs,
    )
