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

A scene's caption labels are compiled once into a Supervision: the
sorted class array and the pair-class and pair-column arrays, validated
against the model's class count and attribute columns. Every caption
loss and the refinement chain read those arrays; none of them sorts or
checks labels again. Compiling without pairs is the exact-match
baseline: with no pairs there is no coupled term anywhere.

Both maxima run over all classes (or pairs) at once: one argmax over the
gathered columns, then the coupled term scatters its gradients with
np.add.at in pair order, so pairs meeting in one cell add up.

Every loss function returns its value together with its gradient with
respect to the score arrays it consumed; parameter gradients are the
score network's job. Scores may carry leading axes, one per stacked
logit array over the scene's regions: maxima run over the region axis
(-2), gathers and scatters index each slice, and a value comes back per
slice as an array. Sums run in C order, so every slice's value has the
bits of a one-scene call, which returns plain floats.

total_loss is the one place the terms are mixed: the evidence term, plus
lambda1 times the MIL term, plus lambda2 times the coupled term, plus the
refinement terms unweighted. The weights come straight from TrainConfig,
which checks them. The weighted first-head caption gradients are added in
place into the refinement gradient that oicr.refinement_terms returned,
so a scene-step fills one heads-sized gradient array, not two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .scorenet import Scores, clamp_prob
from .textgraph import LabelSet


@dataclass(frozen=True)
class Supervision:
    """One scene's caption labels as validated index arrays.

    The pairs are ordered by class and then by (category, value); a pair's
    column indexes the model's (m, V) attribute scores, and pair_keys names
    it as (class, category, value).
    """

    num_classes: int
    classes: np.ndarray  # (|O|,) mentioned classes, ascending
    pair_classes: np.ndarray  # (P,)
    pair_columns: np.ndarray  # (P,)
    pair_keys: tuple[tuple[int, str, str], ...]


def compile_supervision(
    labels: LabelSet, num_classes: int, value_columns: Mapping[tuple[str, str], int], pairs: bool = True
) -> Supervision:
    """Sort, validate and index a scene's labels; pairs=False keeps the classes only."""
    classes = sorted(labels.objects)
    for c in classes:
        if not 0 <= c < num_classes:
            raise ValueError(f"class index {c} out of range for {num_classes} classes")
    keys = [(c, cat, val) for c in classes for cat, val in labels.pairs_for(c)] if pairs else []
    for c, cat, val in keys:
        if (cat, val) not in value_columns:
            raise ValueError(f"class {c}: no attribute column for {cat!r} = {val!r}")
    return Supervision(
        num_classes=num_classes,
        classes=np.array(classes, dtype=int),
        pair_classes=np.array([c for c, _, _ in keys], dtype=int),
        pair_columns=np.array([value_columns[cat, val] for _, cat, val in keys], dtype=int),
        pair_keys=tuple(keys),
    )


def _value(v: np.ndarray) -> float | np.ndarray:
    """One scene's loss value as a float; a stack's as an array over its leading axes."""
    return float(v) if v.ndim == 0 else v


def _chosen(keys: Sequence, rows: np.ndarray) -> dict:
    """Each key's chosen region, or its list of regions along the leading axes."""
    return {key: rows[..., i].tolist() for i, key in enumerate(keys)}


def _argmax_cells(p: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index of each column's maximizing cell in an (..., m, n) array, ties to the lowest region.

    Its second-to-last entry holds the chosen regions; any array laid
    out like p can be read or scattered through it.
    """
    rows = np.argmax(p, axis=-2)
    lead = (i[..., None] for i in np.indices(rows.shape[:-1], sparse=True))
    return (*lead, rows, np.arange(p.shape[-1]))


def object_mil_loss(scores: np.ndarray, sup: Supervision) -> tuple[float, np.ndarray, dict[int, int]]:
    """-(1/|O|) sum over mentioned classes of log of the best region score.

    Gradient is nonzero only at each class's maximizing region; ties go to
    the lowest region index. Empty O short-circuits to zero. scores is
    (..., m, C + 1); leading axes give a value per slice.
    """
    grad = np.zeros_like(scores)
    classes = sup.classes
    if not classes.size:
        return _value(np.zeros(scores.shape[:-2])), grad, {}
    p = np.asarray(clamp_prob(scores[..., classes]))
    at = _argmax_cells(p)
    best = p[at]
    grad[(*at[:-1], classes)] = -1.0 / best  # one cell per class, so none is hit twice
    grad /= classes.size
    return _value(-np.sum(np.log(best), axis=-1) / classes.size), grad, _chosen(classes.tolist(), at[-2])


def entanglement_loss(
    obj_scores: np.ndarray, attr_scores: np.ndarray, sup: Supervision
) -> tuple[float, np.ndarray, np.ndarray, dict[tuple[int, str, str], int]]:
    """Coupled object-attribute MIL: per pair, maximize the product at one region.

    For each mentioned class c and each of its attribute pairs (a, v),
    the loss is -log max over regions of obj[:, c] * attr[:, col(a, v)].
    Both factors receive gradient at the maximizing region. The sum over
    pairs is normalized by |O|, the number of mentioned classes. Leading
    axes of (..., m, C + 1) and (..., m, V) scores give a value per slice.
    """
    grad_obj = np.zeros_like(obj_scores)
    grad_attr = np.zeros_like(attr_scores)
    classes, cols = sup.pair_classes, sup.pair_columns
    if not classes.size:
        return _value(np.zeros(obj_scores.shape[:-2])), grad_obj, grad_attr, {}
    p_obj = np.asarray(clamp_prob(obj_scores[..., classes]))
    p_attr = np.asarray(clamp_prob(attr_scores[..., cols]))
    at = _argmax_cells(p_obj * p_attr)
    best_obj, best_attr = p_obj[at], p_attr[at]
    # np.add.at, not fancy-index assignment: pairs that meet in one cell must accumulate
    np.add.at(grad_obj, (*at[:-1], classes), -1.0 / best_obj)
    np.add.at(grad_attr, (*at[:-1], cols), -1.0 / best_attr)
    denom = float(sup.classes.size)
    grad_obj /= denom
    grad_attr /= denom
    total = -np.sum(np.log(best_obj) + np.log(best_attr), axis=-1) / denom
    return _value(total), grad_obj, grad_attr, _chosen(sup.pair_keys, at[-2])


def mid_loss(image_level: np.ndarray, sup: Supervision) -> tuple[float, np.ndarray]:
    """Binary cross-entropy of the image-level scores against mention labels.

    Returns the gradient with respect to the image-level scores; pushing
    it back through the sigmoid, the region sum, and both streams is done
    by the score network's backward pass. image_level is (..., C); leading
    axes give a value per slice.
    """
    y = np.asarray(clamp_prob(image_level))
    if y.shape[-1:] != (sup.num_classes,):
        raise ValueError(f"expected {sup.num_classes} image-level scores, got shape {y.shape}")
    positive = np.zeros(sup.num_classes, dtype=bool)
    positive[sup.classes] = True
    # compress keeps C order where y[..., positive] would not, so each slice sums as it would alone
    log_positive = np.log(y.compress(positive, axis=-1))
    log_negative = np.log1p(-y.compress(~positive, axis=-1))
    total = -(log_positive.sum(axis=-1) + log_negative.sum(axis=-1))
    grad = np.where(positive, -1.0 / y, 1.0 / (1.0 - y))
    return _value(total), grad


@dataclass
class LossReport:
    """One training step's loss breakdown, score-space gradients, and region choices.

    For stacked scores every value is an array over the leading axes and
    every region choice a list along them.
    """

    l_obj: float
    l_entang: float
    l_mid: float
    l_oicr: tuple[float, ...]
    l_total: float
    grad: np.ndarray  # (m, K(C + 1) + K * V), laid out like Scores.heads
    grad_image: np.ndarray  # (C,) with respect to the image-level scores
    argmax_objects: dict[int, int] = field(default_factory=dict)
    argmax_pairs: dict[tuple[int, str, str], int] = field(default_factory=dict)


def total_loss(
    scores: Scores,
    sup: Supervision,
    lambda1: float,
    lambda2: float,
    oicr_values: Sequence[float] | np.ndarray,
    grad: np.ndarray,
) -> LossReport:
    """Mix the terms: evidence + lambda1 * MIL + lambda2 * coupled + refinement terms.

    grad is the refinement gradient, laid out like scores.heads; the
    weighted first-head MIL and coupled gradients are added into it in
    place, and the report holds that same array. The weights are checked
    by TrainConfig. Supervision compiled without pairs has no coupled
    term: its value and gradient are exact zeros. Scores with leading
    axes, with oicr_values (..., K), give a report whose values are
    arrays over those axes.
    """
    grad_objects, grad_attributes = scores.split(grad)
    first_objects, first_attributes = scores.objects[..., 0, :, :], scores.attributes[..., 0, :, :]
    l_obj, g_obj, argmax_objects = object_mil_loss(first_objects, sup)
    l_entang, g_eobj, g_eattr, argmax_pairs = entanglement_loss(first_objects, first_attributes, sup)
    # caption terms summed first: two separate += onto the refinement gradient would round differently
    grad_objects[..., 0, :, :] += lambda1 * g_obj + lambda2 * g_eobj
    grad_attributes[..., 0, :, :] += lambda2 * g_eattr

    l_mid, grad_image = mid_loss(scores.image_level, sup)
    oicr_values = np.asarray(oicr_values, dtype=float)
    l_total = l_mid + lambda1 * l_obj + lambda2 * l_entang + np.sum(oicr_values, axis=-1)
    return LossReport(
        l_obj=l_obj,
        l_entang=l_entang,
        l_mid=l_mid,
        l_oicr=tuple(oicr_values.tolist()) if oicr_values.ndim == 1 else oicr_values,
        l_total=_value(l_total),
        grad=grad,
        grad_image=grad_image,
        argmax_objects=argmax_objects,
        argmax_pairs=argmax_pairs,
    )
