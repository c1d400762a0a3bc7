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
scene's boxes, overlap_masks) depends on the proposals alone, so its
caller builds it once, train before its first step and a gradient check
once per trial, and every head of every step reads it. Supervision
without an attribute pair seeds no pair and gets no coupled assignment.

The chain runs over a padded batch of N scenes (a lone scene is N = 1)
and its Supervision: every class column of every scene is seeded at once,
padded rows are never seeded and never overlap anything, and the mention
mask keeps a row from being claimed by a class its scene does not
mention. Labels and weights are (N, K, M); padded rows, and every row of
a scene that mentions no class, weigh 0, so each scene's refinement term
is the one it would have alone, divided by its own proposal count, up to
the last bit: the value sums over the batch's padded width M, and from 8
terms on numpy sums pairwise, so the zero terms of padded rows can regroup
the sum. Gradients are not affected, only the logged values. Like
the caption terms, refinement_terms is a value stage that returns its
gradient stage (weakloss describes the two), so the gradient check's
probes are scored without a gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import iou_matrix
from .scorenet import Scores, clamp_prob, softmax_cols
from .weakloss import Supervision, best_regions, gather_entries, run_sums


@dataclass(frozen=True)
class PseudoLabels:
    """Every head's frozen supervision over a padded batch of scenes.

    coupled[k, i, r], OICR's region labels for pairs, asks head k to
    explain the class and attribute column of the supervision's pair i
    (sup.pair_classes[i], sup.pair_columns[i]) at region r of its scene.
    """

    labels: np.ndarray  # (N, K, M) class index, background = num_classes
    weights: np.ndarray  # (N, K, M), 0 at padded rows and in scenes without a mention
    seeds: np.ndarray  # (K, |O|) seed region of each mentioned class
    coupled: np.ndarray  # (K, P, M) bool


def initial_scores(per_region: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Head 0: the (N, m, C) evidence product normalized over each scene's regions per class; padded rows get 0."""
    return softmax_cols(np.where(valid[..., None], per_region, -np.inf))


def overlap_masks(boxes: np.ndarray, tau: float, valid: np.ndarray) -> np.ndarray:
    """near[n, i, j]: box i of scene n overlaps its box j by IoU >= tau; False at padded rows and columns of valid (N, m).

    Each scene's block is the mask its own (m, 4) boxes give, bit for bit.
    """
    return (iou_matrix(boxes, boxes) >= tau) & valid[..., :, None] & valid[..., None, :]


def build_pseudo_labels(scores: Scores, sup: Supervision, near: np.ndarray) -> PseudoLabels:
    """Freeze every head's supervision from its predecessor's current scores.

    near is overlap_masks of the batch's boxes at the refinement tau,
    (N, M, M). The result is pure data: recomputing losses against it
    involves no argmax over live scores, which is what a gradient check
    needs.
    """
    valid = scores.valid
    # (K, N, C, m): head k's predecessor scores, head axis first, padded rows never seeded
    prev = np.concatenate(
        [initial_scores(scores.per_region, valid)[:, None], scores.objects[:, :-1, :, : sup.num_classes]], axis=1
    ).transpose(1, 0, 3, 2)
    prev = np.where(valid[:, None], prev, -np.inf)
    seeds, seed_scores = prev.argmax(axis=-1), prev.max(axis=-1)
    # reach[k, n, c, i]: mentioned class c of scene n reaches row i, where
    # near[n, i, seed] (the seed's column, read as a row)
    reach = near.swapaxes(-1, -2)[np.arange(len(valid))[:, None], seeds] & sup.positive[..., None]
    # claims: head k's seed score of class c where it reaches; argmax keeps
    # the first maximum, so the lowest class wins a tie
    claims = np.where(reach, seed_scores[..., None], -np.inf)
    claimed = reach.any(axis=-2)
    labels = np.where(claimed, np.argmax(claims, axis=-2), sup.num_classes)
    # unclaimed rows are background with weight 1, except padded rows and
    # every row of a scene that mentions no class, which get weight 0
    weights = np.where(claimed, claims.max(axis=-2), valid & sup.positive.any(axis=-1)[:, None])
    if sup.pair_classes.size:
        coupled = coupled_assignments(scores, sup, near, seeds)
    else:
        # no pair to seed: every baseline step, and any batch whose captions name no attribute
        coupled = np.zeros((len(seeds), 0, valid.shape[-1]), dtype=bool)
    return PseudoLabels(labels.swapaxes(0, 1), weights.swapaxes(0, 1), seeds[:, sup.class_scenes, sup.classes], coupled)


def coupled_assignments(scores: Scores, sup: Supervision, near: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """PseudoLabels.coupled, (K, P, M), given every class's (K, N, C) seeds.

    Head 1 labels each pair at its class's evidence seed; later heads seed
    each pair at the previous head's best product and spread it by overlap.
    """
    # (K - 1, N, m, ·): the previous heads' scores, head axis first
    objects, attributes = scores.objects[:, :-1].swapaxes(0, 1), scores.attributes[:, :-1].swapaxes(0, 1)
    scenes = sup.pair_scenes
    product = gather_entries(objects, scenes, sup.pair_classes) * gather_entries(attributes, scenes, sup.pair_columns)
    first = np.arange(near.shape[-1]) == seeds[0, scenes, sup.pair_classes][:, None]
    # a pair reaches region i where near[n, i, seed]: the seed's column, read as a row
    return np.concatenate([first[None], near.swapaxes(-1, -2)[scenes, best_regions(product, scenes, scores.valid)]])


def refinement_terms(scores: Scores, sup: Supervision, pseudo: PseudoLabels) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Per-head loss values (N, K), and the gradient stage that returns their gradient with respect to scores.heads.

    Head k's value is the weighted cross-entropy -(1/m) sum w_i log s[i, label_i]
    plus, when it has coupled assignments, their cross-entropy averaged per
    assignment: the attribute factor at every head, the object factor from
    head 2 on (head 1's object head already has its own labels). Each scene
    sums its own rows and divides by its own m; each (head, scene) group of
    assignments is one run of run_sums. sup, which pseudo was built from,
    names each coupled pair's scene, class and column. The gradient stage
    scatters from the cells and clamped scores the values read into a new
    array laid out like scores.heads: assignments sharing a score cell add
    up their gradients there, and padded rows, weighted 0, get none.
    """
    labels, shape = pseudo.labels, scores.objects.shape[:-1]
    if labels.shape != shape:
        raise ValueError(f"pseudo-labels cover {labels.shape} (scene, head, region) cells, scores have {shape}")
    num_scenes, k, width = labels.shape
    m = scores.valid.sum(axis=-1)[:, None, None]
    cells = (np.arange(num_scenes)[:, None, None], np.arange(k)[:, None], np.arange(width), labels)
    p = clamp_prob(scores.objects[cells])
    values = -np.sum(pseudo.weights * np.log(p), axis=-1) / m[..., 0]

    if pseudo.coupled.size:
        # assignments come head by head, and a head's pairs scene by scene: group (head, scene) is one run
        h, pair, r = np.nonzero(pseudo.coupled)
        s = sup.pair_scenes[pair]
        group = h * num_scenes + s
        attr_at = (s, h, r, sup.pair_columns[pair])
        p_attr = clamp_prob(scores.attributes[attr_at])
        # the object factors skip head 1's assignments
        both = h > 0
        obj_at = (s[both], h[both], r[both], sup.pair_classes[pair[both]])
        p_obj = clamp_prob(scores.objects[obj_at])
        size = k * num_scenes
        counts = np.bincount(group, minlength=size)
        total = -run_sums(np.log(p_attr), group, size) - run_sums(np.log(p_obj), group[both], size)
        # an empty group's total is -0.0, which adds nothing
        values += (total / np.maximum(counts, 1)).reshape(k, num_scenes).T

    def gradient() -> np.ndarray:
        grad = np.zeros(scores.heads.shape)
        grad_objects, grad_attributes = scores.split(grad)
        grad_objects[cells] = -pseudo.weights / (m * p)  # one cell per (head, region), and grad is still zero
        if pseudo.coupled.size:
            n = counts[group]
            # np.add.at, not fancy-index assignment: cells hit twice must accumulate
            np.add.at(grad_attributes, attr_at, -1.0 / (n * p_attr))
            # summed in its own zero array and added once: accumulating straight
            # onto the refinement gradient would round differently
            coupled_objects = np.zeros(grad_objects.shape)
            np.add.at(coupled_objects, obj_at, -1.0 / (n[both] * p_obj))
            grad_objects += coupled_objects
        return grad

    return values, gradient
