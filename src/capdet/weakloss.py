"""Losses for caption-level supervision.

Three ingredients. A per-class MIL term rewards the single best region
for each mentioned class. A coupled term does the same for each
(class, attribute) pair but maximizes the product of the two scores at
one region, so the chosen region must explain the object and its
attribute simultaneously; its maximizing region can differ from the
object-only one, which is the entire point of coupling rather than
summing two independent maxima. Both are Cap2Det's MIL over a product of
factors, one or two (_product_mil), averaged over the mentioned classes,
so the coupled term sums its pairs and divides by the class count. An
image-evidence term treats the per-class image scores as independent
binary predictions of mention.

Every scene's caption labels are compiled in one call into a
Supervision: masks of the mentioned classes and of the (class, attribute
column) pairs, a row per scene, validated against the model's class
count and attribute columns. Every caption loss and the refinement chain
read the masks' cells and never sort or check labels again. Compiling
without pairs is the exact-match baseline: with no pairs there is no
coupled term anywhere.

Scores come as a padded batch of N scenes, (N, m, ·): a lone scene is
N = 1, and so is each of the gradient check's probes. A batch's
Supervision is its scenes' rows of the masks, so each class and pair
names its own scene and reads that scene's column, the (N, m) valid mask
keeps padded rows out of every maximum, and each scene is averaged over
its own classes. Both maxima run over all entries at once: one argmax
over the gathered product, then one np.add.at per factor in entry order,
so pairs meeting in one cell add up. Every value is an array over N, and
run_sums sums each scene's entries with the bits np.sum gives them
alone: every scene gets its one-scene batch's value and gradient bits,
up to the sign of a zero.

Every loss term runs in two stages. Its value stage does the gathers,
clamps, maxima, logs and per-scene sums, and returns the value together
with its gradient stage: a function that scatters, from the cells the
value stage chose and the clamped scores it read, the gradient with
respect to the score arrays the term consumed, and gathers nothing
again. Every training step runs both; gradcheck.composed_loss runs the
value stages alone, since a probe needs only its loss value. Parameter
gradients are the score network's job.

total_loss is the one place the terms are mixed: the evidence term, plus
lambda1 times the MIL term, plus lambda2 times the coupled term, plus the
refinement terms unweighted. The weights come straight from TrainConfig,
which checks them. It takes oicr.refinement_terms' values and gradient
stage and returns a LossReport, which holds values only, and the
composed gradient stage. That stage runs the refinement stage and adds
the weighted first-head caption gradients into its result in place, so
a step fills one heads-sized gradient array, not two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Mapping

import numpy as np

from .scorenet import Scores, clamp_prob
from .textgraph import LabelSet


class Supervision:
    """Caption labels of N scenes as two masks, and the index arrays of their cells.

    positive marks each scene's mentioned classes and pairs its (class,
    attribute column) pairs. The constructor derives the rest once: the
    classes, pair_classes and pair_columns, with class_scenes and
    pair_scenes indexing the scores' scene axis, are the masks' cells scene
    after scene, classes ascending and a class's pairs by attribute column;
    divisor is each scene's class count (at least 1), which the MIL and
    coupled terms average over.
    """

    def __init__(self, positive: np.ndarray, pairs: np.ndarray):
        self.positive = positive  # (N, C) bool
        self.pairs = pairs  # (N, C, V) bool
        self.num_classes = positive.shape[-1]
        self.class_scenes, self.classes = np.nonzero(positive)  # (|O|,) each
        self.pair_scenes, self.pair_classes, self.pair_columns = np.nonzero(pairs)  # (P,) each
        self.divisor = np.maximum(positive.sum(axis=-1), 1.0)  # (N,)


def compile_supervision(
    labels: Iterable[LabelSet],
    num_classes: int,
    value_columns: Mapping[tuple[str, str], int],
    pairs: bool = True,
    count: int | None = None,
) -> Supervision:
    """Validate N scenes' labels into one Supervision, scene n in row n; pairs=False keeps the classes only.

    labels is read once, one LabelSet at a time, and none is kept, so a
    generator that parses each scene's captions as it is read holds one
    scene's labels at a time. count is N, len(labels) by default; labels
    of another length are a ValueError. The pair mask has one column past
    the largest of value_columns.
    """
    if count is None:
        count = len(labels)
    positive = np.zeros((count, num_classes), dtype=bool)
    mask = np.zeros(positive.shape + (max(value_columns.values(), default=-1) + 1,), dtype=bool)
    scenes = iter(labels)
    for n in range(count):
        scene = next(scenes, None)
        if scene is None:
            raise ValueError(f"labels of {n} scenes for a count of {count}")
        classes = sorted(scene.objects)
        for c in classes:
            if not 0 <= c < num_classes:
                raise ValueError(f"class index {c} out of range for {num_classes} classes")
        positive[n, classes] = True
        for c in classes if pairs else ():
            for cat, val in scene.pairs_for(c):
                if (cat, val) not in value_columns:
                    raise ValueError(f"class {c}: no attribute column for {cat!r} = {val!r}")
                mask[n, c, value_columns[cat, val]] = True
        del scene  # kept, it would be alive while the next scene's labels are made
    if next(scenes, None) is not None:
        raise ValueError(f"labels of more scenes than the count of {count}")
    return Supervision(positive, mask)


def gather_entries(a: np.ndarray, scenes: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(..., n, m): entry i is column columns[i] of scene scenes[i] of a (..., N, m, c)."""
    return a.swapaxes(-1, -2)[..., scenes, columns, :]


def best_regions(p: np.ndarray, scenes: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Each entry's maximizing region of p (..., n, m), ties to the lowest; padded rows of valid (N, m) never win."""
    return np.where(valid[scenes], p, -np.inf).argmax(axis=-1)


def run_sums(x: np.ndarray, runs: np.ndarray, size: int) -> np.ndarray:
    """(size,) sums of x over each run of one id in ascending runs, each with the bits np.sum gives the run alone.

    np.bincount adds in order, as numpy does below 8 terms; runs of 8 or
    more, which numpy sums pairwise, are summed again as the rows of one
    2-D gather per run length.
    """
    sums = np.bincount(runs, weights=x, minlength=size)
    counts = np.bincount(runs, minlength=size)
    for length in set(counts[counts >= 8].tolist()):
        ids = np.flatnonzero(counts == length)
        starts = np.cumsum(counts)[ids] - length
        sums[ids] = x[starts[:, None] + np.arange(length)].sum(axis=1)
    return sums


def _product_mil(
    factors: tuple, columns: tuple, scenes: np.ndarray, divisor: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Callable[[], tuple]]:
    """Per entry, -log of every factor at the region maximizing their product; each scene's sum over its divisor.

    Entry i reads column columns[f][i] of factor f (N, m, ·) in scene
    scenes[i]. The gradient stage returns one gradient per factor. No entry
    short-circuits to zero.
    """
    if not scenes.size:
        return np.zeros(len(divisor)), np.zeros(0, dtype=int), lambda: tuple(np.zeros(f.shape) for f in factors)
    p = [clamp_prob(gather_entries(f, scenes, cols)) for f, cols in zip(factors, columns)]
    rows = best_regions(reduce(np.multiply, p), scenes, valid)
    best = [q[np.arange(scenes.size), rows] for q in p]

    def gradient() -> tuple[np.ndarray, ...]:
        grads = tuple(np.zeros(f.shape) for f in factors)
        for grad, cols, b in zip(grads, columns, best):
            # np.add.at, not fancy-index assignment: pairs that meet in one cell must accumulate
            np.add.at(grad, (scenes, rows, cols), -1.0 / b)
            grad /= divisor[:, None, None]
        return grads

    return -run_sums(reduce(np.add, map(np.log, best)), scenes, len(divisor)) / divisor, rows, gradient


def object_mil_loss(
    scores: np.ndarray, sup: Supervision, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
    """-(1/|O|) sum over mentioned classes of log of the best region score.

    Gradient is nonzero only at each class's maximizing region; ties go to
    the lowest region index. Empty O short-circuits to zero. scores is
    (N, m, C + 1) and valid (N, m); the value is (N,), each scene averaged
    over its own classes. The chosen regions come back as (|O|,) rows,
    entry i for class sup.classes[i], and then the gradient stage, which
    returns the gradient with respect to scores.
    """
    value, rows, gradient = _product_mil((scores,), (sup.classes,), sup.class_scenes, sup.divisor, valid)
    return value, rows, lambda: gradient()[0]


def entanglement_loss(
    obj_scores: np.ndarray, attr_scores: np.ndarray, sup: Supervision, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Callable[[], tuple[np.ndarray, np.ndarray]]]:
    """Coupled object-attribute MIL: per pair, maximize the product at one region.

    For each mentioned class c and each of its attribute pairs (a, v),
    the loss is -log max over regions of obj[:, c] * attr[:, col(a, v)],
    and both factors receive gradient at the maximizing region. The sum
    over pairs is normalized by |O|. Scores are (N, m, C + 1) and
    (N, m, V); valid, the value and the (P,) rows, entry i for pair i of
    sup, work as in object_mil_loss, and the gradient stage returns the
    gradients with respect to both score arrays.
    """
    return _product_mil(
        (obj_scores, attr_scores), (sup.pair_classes, sup.pair_columns), sup.pair_scenes, sup.divisor, valid
    )


def mid_loss(image_level: np.ndarray, sup: Supervision) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Binary cross-entropy of the image-level scores against mention labels.

    The gradient stage returns the gradient with respect to the
    image-level scores; pushing it back through the sigmoid, the region
    sum, and both streams is done by the score network's backward pass.
    image_level is (N, C) and the value (N,).
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
    return total, lambda: np.where(positive, -1.0 / y, 1.0 / (1.0 - y))


@dataclass
class LossReport:
    """One training step's loss breakdown and region choices.

    Every value is an array over the scores' N scenes. The region choices
    are object_mil_loss's and entanglement_loss's rows: entry i names the
    region chosen for sup.classes[i] (for the pair (sup.pair_classes[i],
    sup.pair_columns[i])).
    """

    l_obj: np.ndarray  # (N,)
    l_entang: np.ndarray  # (N,)
    l_mid: np.ndarray  # (N,)
    l_oicr: np.ndarray  # (N, K)
    l_total: np.ndarray  # (N,)
    argmax_objects: np.ndarray  # (|O|,)
    argmax_pairs: np.ndarray  # (P,)


def total_loss(
    scores: Scores,
    sup: Supervision,
    lambda1: float,
    lambda2: float,
    refinement: tuple[np.ndarray, Callable[[], np.ndarray]],
) -> tuple[LossReport, Callable[[], tuple[np.ndarray, np.ndarray]]]:
    """Mix the terms: evidence + lambda1 * MIL + lambda2 * coupled + refinement terms.

    refinement is oicr.refinement_terms' pair: the values (N, K) and the
    gradient stage. Returns the report and the composed gradient stage,
    which runs the refinement stage, adds the weighted first-head MIL and
    coupled gradients into its result in place, and returns that gradient,
    laid out like scores.heads, and the gradient with respect to the
    image-level scores. The weights are checked by TrainConfig.
    Supervision compiled without pairs has no coupled term: its value and
    gradient are exact zeros.
    """
    oicr_values, refinement_gradient = refinement
    first_objects, first_attributes = scores.objects[:, 0], scores.attributes[:, 0]
    l_obj, argmax_objects, obj_gradient = object_mil_loss(first_objects, sup, scores.valid)
    l_entang, argmax_pairs, pair_gradient = entanglement_loss(first_objects, first_attributes, sup, scores.valid)
    l_mid, image_gradient = mid_loss(scores.image_level, sup)
    report = LossReport(
        l_obj=l_obj,
        l_entang=l_entang,
        l_mid=l_mid,
        l_oicr=oicr_values,
        l_total=l_mid + lambda1 * l_obj + lambda2 * l_entang + np.sum(oicr_values, axis=-1),
        argmax_objects=argmax_objects,
        argmax_pairs=argmax_pairs,
    )

    def gradient() -> tuple[np.ndarray, np.ndarray]:
        grad = refinement_gradient()
        grad_objects, grad_attributes = scores.split(grad)
        g_eobj, g_eattr = pair_gradient()
        # caption terms summed first: two separate += onto the refinement gradient would round differently
        grad_objects[:, 0] += lambda1 * obj_gradient() + lambda2 * g_eobj
        grad_attributes[:, 0] += lambda2 * g_eattr
        return grad, image_gradient()

    return report, gradient
