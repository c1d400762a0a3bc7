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

A training step's padded batch puts its scene axis last among the
leading axes, and its Supervision (Supervision.concat) names each
class's and pair's scene: an entry reads its own scene's column, the
valid mask keeps padded rows out of every maximum, and each scene is
averaged over its own classes. Its gradients have the bits of one-scene
calls; its values may differ in the last bits, since a scene's terms are
summed next to the zeros that stand for the other scenes' entries.

total_loss is the one place the terms are mixed: the evidence term, plus
lambda1 times the MIL term, plus lambda2 times the coupled term, plus the
refinement terms unweighted. The weights come straight from TrainConfig,
which checks them. The weighted first-head caption gradients are added in
place into the refinement gradient that oicr.refinement_terms returned,
so a scene-step fills one heads-sized gradient array, not two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .scorenet import Scores, clamp_prob
from .textgraph import LabelSet


@dataclass(frozen=True)
class Supervision:
    """Caption labels as validated index arrays: one scene's, or a padded batch's.

    The pairs are ordered by class and then by (category, value); a pair's
    column indexes the model's (m, V) attribute scores, its entry indexes
    classes, and pair_keys names it as (class, category, value). positive
    marks the mentioned classes, and divisor is the number of them (at
    least 1), which the MIL and coupled terms average over.

    A batch's supervision (concat) lists its scenes' classes and pairs
    scene after scene. class_scenes and pair_scenes give each one's scene,
    an index into the scene axis of the batch's scores; positive gains
    that axis, (N, C), and divisor becomes (N,). Its pair_keys lead with
    the scene. A single scene's class_scenes and pair_scenes are None.
    """

    num_classes: int
    classes: np.ndarray  # (|O|,) mentioned classes, ascending within a scene
    pair_classes: np.ndarray  # (P,)
    pair_columns: np.ndarray  # (P,)
    pair_entries: np.ndarray  # (P,) index into classes of each pair's class
    pair_keys: tuple[tuple, ...]
    positive: np.ndarray  # (C,) bool
    divisor: float | np.ndarray
    class_scenes: np.ndarray | None = None
    pair_scenes: np.ndarray | None = None

    @staticmethod
    def concat(sups: Sequence["Supervision"]) -> "Supervision":
        """The supervision of a batch of single scenes, scene n being row n of the batch's scene axis."""
        counts = [sup.classes.size for sup in sups]
        offsets = itertools.accumulate(counts[:-1], initial=0)
        scenes = np.arange(len(sups))
        return Supervision(
            num_classes=sups[0].num_classes,
            classes=np.concatenate([sup.classes for sup in sups]),
            pair_classes=np.concatenate([sup.pair_classes for sup in sups]),
            pair_columns=np.concatenate([sup.pair_columns for sup in sups]),
            pair_entries=np.concatenate([sup.pair_entries + offset for sup, offset in zip(sups, offsets)]),
            pair_keys=tuple((n, *key) for n, sup in enumerate(sups) for key in sup.pair_keys),
            positive=np.array([sup.positive for sup in sups]),
            divisor=np.array([sup.divisor for sup in sups]),
            class_scenes=np.repeat(scenes, counts),
            pair_scenes=np.repeat(scenes, [sup.pair_classes.size for sup in sups]),
        )


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
    pair_classes = np.array([c for c, _, _ in keys], dtype=int)
    positive = np.zeros(num_classes, dtype=bool)
    positive[classes] = True
    return Supervision(
        num_classes=num_classes,
        classes=np.array(classes, dtype=int),
        pair_classes=pair_classes,
        pair_columns=np.array([value_columns[cat, val] for _, cat, val in keys], dtype=int),
        pair_entries=np.searchsorted(classes, pair_classes),
        pair_keys=tuple(keys),
        positive=positive,
        divisor=float(max(1, len(classes))),
    )


def _value(v: np.ndarray) -> float | np.ndarray:
    """One scene's loss value as a float; a stack's or a batch's as an array over its leading axes."""
    return float(v) if v.ndim == 0 else v


def _no_rows(scores: np.ndarray, scenes: np.ndarray | None) -> np.ndarray:
    """The chosen rows of no entry: (..., 0) over scores' leading axes, a batch's scene axis not among them."""
    return np.zeros(scores.shape[: -2 if scenes is None else -3] + (0,), dtype=int)


def gather_entries(a: np.ndarray, scenes: np.ndarray | None, columns: np.ndarray) -> np.ndarray:
    """(..., n, m): entry i is column columns[i] of a (..., m, c), of scene scenes[i] of a batch's (..., N, m, c)."""
    t = a.swapaxes(-1, -2)
    return t[..., columns, :] if scenes is None else t[..., scenes, columns, :]


def best_regions(p: np.ndarray, scenes: np.ndarray | None, valid: np.ndarray | None) -> np.ndarray:
    """Each entry's maximizing region of p (..., n, m), ties to the lowest; a batch's padded rows never win."""
    if valid is not None:
        p = np.where(valid[scenes], p, -np.inf)
    return p.argmax(axis=-1)


def slice_index(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Index arrays that address every slice of leading axes of this shape, broadcasting against (..., n)."""
    return tuple(np.arange(size).reshape((size,) + (1,) * (len(shape) - i)) for i, size in enumerate(shape))


def _scene_sums(terms: np.ndarray, scenes: np.ndarray | None, sup: Supervision) -> np.ndarray:
    """Sum (..., n) terms over a scene's entries; per scene (..., N) in a batch."""
    if scenes is None:
        return np.sum(terms, axis=-1)
    owner = scenes == np.arange(len(sup.positive))[:, None]
    return np.where(owner, terms[..., None, :], 0.0).sum(axis=-1)


def object_mil_loss(
    scores: np.ndarray, sup: Supervision, valid: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """-(1/|O|) sum over mentioned classes of log of the best region score.

    Gradient is nonzero only at each class's maximizing region; ties go to
    the lowest region index. Empty O short-circuits to zero. scores is
    (..., m, C + 1); leading axes give a value per slice. A batch's
    scores carry the scene axis at -3, valid (N, m) masks its padded rows,
    and every scene is averaged over its own classes. The chosen regions
    come back as (..., |O|) rows, entry i for class sup.classes[i].
    """
    grad = np.zeros(scores.shape)
    classes, scenes = sup.classes, sup.class_scenes
    if not classes.size:
        return _value(np.zeros(scores.shape[:-2])), grad, _no_rows(scores, scenes)
    p = clamp_prob(gather_entries(scores, scenes, classes))
    rows = best_regions(p, scenes, valid)
    lead = slice_index(rows.shape[:-1])
    best = p[(*lead, np.arange(classes.size), rows)]
    scene = () if scenes is None else (scenes,)
    grad[(*lead, *scene, rows, classes)] = -1.0 / best  # one cell per class, so none is hit twice
    grad /= np.asarray(sup.divisor)[..., None, None]
    return _value(-_scene_sums(np.log(best), scenes, sup) / sup.divisor), grad, rows


def entanglement_loss(
    obj_scores: np.ndarray, attr_scores: np.ndarray, sup: Supervision, valid: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Coupled object-attribute MIL: per pair, maximize the product at one region.

    For each mentioned class c and each of its attribute pairs (a, v),
    the loss is -log max over regions of obj[:, c] * attr[:, col(a, v)].
    Both factors receive gradient at the maximizing region. The sum over
    pairs is normalized by |O|, the number of mentioned classes. Leading
    axes of (..., m, C + 1) and (..., m, V) scores give a value per slice;
    a batch's scene axis and valid mask work as in object_mil_loss. The
    chosen regions come back as (..., P) rows, entry i for sup.pair_keys[i].
    """
    grad_obj = np.zeros(obj_scores.shape)
    grad_attr = np.zeros(attr_scores.shape)
    classes, cols, scenes = sup.pair_classes, sup.pair_columns, sup.pair_scenes
    if not classes.size:
        return _value(np.zeros(obj_scores.shape[:-2])), grad_obj, grad_attr, _no_rows(obj_scores, scenes)
    p_obj = clamp_prob(gather_entries(obj_scores, scenes, classes))
    p_attr = clamp_prob(gather_entries(attr_scores, scenes, cols))
    rows = best_regions(p_obj * p_attr, scenes, valid)
    lead = slice_index(rows.shape[:-1])
    at = (*lead, np.arange(classes.size), rows)
    best_obj, best_attr = p_obj[at], p_attr[at]
    scene = () if scenes is None else (scenes,)
    # np.add.at, not fancy-index assignment: pairs that meet in one cell must accumulate
    np.add.at(grad_obj, (*lead, *scene, rows, classes), -1.0 / best_obj)
    np.add.at(grad_attr, (*lead, *scene, rows, cols), -1.0 / best_attr)
    divisor = np.asarray(sup.divisor)[..., None, None]
    grad_obj /= divisor
    grad_attr /= divisor
    total = -_scene_sums(np.log(best_obj) + np.log(best_attr), scenes, sup) / sup.divisor
    return _value(total), grad_obj, grad_attr, rows


def mid_loss(image_level: np.ndarray, sup: Supervision) -> tuple[float, np.ndarray]:
    """Binary cross-entropy of the image-level scores against mention labels.

    Returns the gradient with respect to the image-level scores; pushing
    it back through the sigmoid, the region sum, and both streams is done
    by the score network's backward pass. image_level is (..., C); leading
    axes, a batch's scene axis among them, give a value per slice.
    """
    y = clamp_prob(np.asarray(image_level))
    if y.shape[-1:] != (sup.num_classes,):
        raise ValueError(f"expected {sup.num_classes} image-level scores, got shape {y.shape}")
    positive = sup.positive
    # the masked terms are exact zeros, so under 8 classes each sum has the
    # bits of summing only the scene's own positive (negative) terms
    log_positive = np.where(positive, np.log(y), 0.0)
    log_negative = np.where(positive, 0.0, np.log1p(-y))
    total = -(log_positive.sum(axis=-1) + log_negative.sum(axis=-1))
    grad = np.where(positive, -1.0 / y, 1.0 / (1.0 - y))
    return _value(total), grad


@dataclass
class LossReport:
    """One training step's loss breakdown, score-space gradients, and region choices.

    For stacked scores every value is an array over the leading axes. The
    region choices are object_mil_loss's and entanglement_loss's rows:
    entry i names the region chosen for sup.classes[i] (sup.pair_keys[i]),
    with the leading axes first.
    """

    l_obj: float
    l_entang: float
    l_mid: float
    l_oicr: tuple[float, ...]
    l_total: float
    grad: np.ndarray  # (m, K(C + 1) + K * V), laid out like Scores.heads
    grad_image: np.ndarray  # (C,) with respect to the image-level scores
    argmax_objects: np.ndarray  # (..., |O|)
    argmax_pairs: np.ndarray  # (..., P)


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
    l_obj, g_obj, argmax_objects = object_mil_loss(first_objects, sup, scores.valid)
    l_entang, g_eobj, g_eattr, argmax_pairs = entanglement_loss(first_objects, first_attributes, sup, scores.valid)
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
