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
The refinement terms also score stacked scores (leading axes, as
weakloss describes) against one frozen PseudoLabels.

Over a padded batch of scenes, the supervision is concatenated
(Supervision.concat) and each mentioned class seeds in its own scene:
padded rows are never seeded and never overlap anything, and a row is
claimed only by its own scene's classes. Labels and weights gain the
scene axis, (N, K, M); padded rows, and every row of a scene that
mentions no class, weigh 0, so each scene's refinement term is the one
it would have alone, divided by its own proposal count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import iou_matrix
from .scorenet import Scores, clamp_prob, softmax_cols
from .weakloss import Supervision, best_regions, gather_entries, slice_index


@dataclass(frozen=True)
class PseudoLabels:
    """Every head's frozen supervision, head first; a batch's carries its scene axis first.

    A coupled assignment (head, region, class, column) asks the head to
    explain the class and the attribute column at the region; they are
    ordered by head, then by pair, then by region. In a batch, scenes
    names each assignment's scene, and a head's assignments run scene
    after scene.
    """

    labels: np.ndarray  # (K, m) class index, background = num_classes; (N, K, M) in a batch
    weights: np.ndarray  # (K, m); (N, K, M) in a batch, 0 at padded rows and in scenes without a mention
    seeds: np.ndarray  # (K, |O|) seed region of each mentioned class
    heads: np.ndarray  # (n,) per coupled assignment: its head,
    regions: np.ndarray  # region,
    classes: np.ndarray  # class
    columns: np.ndarray  # and attribute column
    scenes: np.ndarray | None = None  # and, in a batch, scene


def initial_scores(per_region: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Head 0: the evidence product normalized over regions per class; a batch's padded rows get 0."""
    if valid is not None:
        per_region = np.where(valid[..., None], per_region, -np.inf)
    return softmax_cols(per_region)


def overlap_masks(boxes: np.ndarray, tau: float, valid: np.ndarray | None = None) -> np.ndarray:
    """near[..., i, j]: box i overlaps box j by IoU >= tau; a padded row or column of valid (..., m) is False.

    Each slice of leading axes is the mask a lone (m, 4) call gives, bit
    for bit, so a scene's block of a padded chunk is the scene's own mask.
    """
    near = iou_matrix(boxes, boxes) >= tau
    if valid is not None:
        near &= valid[..., :, None] & valid[..., None, :]
    return near


def build_pseudo_labels(scores: Scores, sup: Supervision, near: np.ndarray) -> PseudoLabels | None:
    """Freeze every head's supervision from its predecessor's current scores.

    near is overlap_masks of the scores' boxes at the refinement tau. The
    result is pure data: recomputing losses against it involves no argmax
    over live scores, which is what a gradient check needs. A scene with
    no mentioned class has no refinement supervision (None), and neither
    has a batch none of whose scenes mentions one. A batch's near is
    (N, M, M), False at its padded rows, and its supervision is
    concatenated (Supervision.concat); its padded rows are never seeded
    and never reached.
    """
    classes, scenes, valid = sup.classes, sup.class_scenes, scores.valid
    if not classes.size:
        return None

    # reach[..., i] of a seed is near[i, seed]: the seed's column, read as a row
    near_t = near.swapaxes(-1, -2)
    # ([N,] K, m, C): head k's predecessor scores
    prev = np.concatenate(
        [initial_scores(scores.per_region, valid)[..., None, :, :], scores.objects[..., :-1, :, : sup.num_classes]],
        axis=-3,
    )
    # (K, |O|, m): each mentioned class's column of its own scene
    candidates = gather_entries(prev if scenes is None else prev.swapaxes(0, 1), scenes, classes)
    if valid is not None:
        candidates = np.where(valid[scenes], candidates, -np.inf)
    seeds = candidates.argmax(axis=-1)
    seed_scores = candidates[np.arange(len(seeds))[:, None], np.arange(classes.size), seeds]
    # claims[k, o, i]: head k's seed score of class o where region i overlaps
    # that seed; argmax keeps the first maximum, so the lowest class wins a tie
    reach = near_t[seeds] if scenes is None else near_t[scenes, seeds]
    claims = np.where(reach, seed_scores[..., None], -np.inf)
    if scenes is not None:
        # (K, N, |O|, M): each scene's rows are claimed by its own classes only
        own = (scenes == np.arange(len(sup.positive))[:, None])[:, :, None]
        reach = reach[:, None] & own
        claims = np.where(own, claims[:, None], -np.inf)
    claimed = reach.any(axis=-2)
    labels = np.where(claimed, classes[np.argmax(claims, axis=-2)], sup.num_classes)
    # unclaimed rows are background with weight 1, except in a batch: padded
    # rows, and every row of a scene that mentions no class, get weight 0
    unclaimed = 1.0 if scenes is None else valid & own.any(axis=1)
    weights = np.where(claimed, claims.max(axis=-2), unclaimed)
    if scenes is not None:
        labels, weights = labels.swapaxes(0, 1), weights.swapaxes(0, 1)
    if sup.pair_classes.size:
        coupled = coupled_assignments(scores, sup, near, seeds)
    else:
        # no pair to seed: every baseline step, and any batch whose captions name no attribute
        none = np.zeros(0, dtype=int)
        coupled = (none, none, none, none, None if scenes is None else none)
    return PseudoLabels(labels, weights, seeds, *coupled)


def coupled_assignments(
    scores: Scores, sup: Supervision, near: np.ndarray, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """PseudoLabels' heads, regions, classes, columns and scenes, given the classes' (K, |O|) seeds.

    Head 1 labels each pair at its class's evidence seed; later heads seed
    each pair at the previous head's best product and spread it by overlap.
    """
    pair_classes, pair_columns, pair_scenes = sup.pair_classes, sup.pair_columns, sup.pair_scenes
    objects, attributes = scores.objects[..., :-1, :, :], scores.attributes[..., :-1, :, :]
    if pair_scenes is not None:
        objects, attributes = objects.swapaxes(0, 1), attributes.swapaxes(0, 1)  # head axis first
    product = gather_entries(objects, pair_scenes, pair_classes) * gather_entries(attributes, pair_scenes, pair_columns)
    pair_seeds = best_regions(product, pair_scenes, scores.valid)
    # a pair reaches region i where near[i, seed]: the seed's column, read as a row
    near_t = near.swapaxes(-1, -2)
    later, pair, region = np.nonzero(near_t[pair_seeds] if pair_scenes is None else near_t[pair_scenes, pair_seeds])
    return (
        np.concatenate([np.zeros(pair_classes.size, dtype=int), later + 1]),
        np.concatenate([seeds[0, sup.pair_entries], region]),
        np.concatenate([pair_classes, pair_classes[pair]]),
        np.concatenate([pair_columns, pair_columns[pair]]),
        None if pair_scenes is None else np.concatenate([pair_scenes, pair_scenes[pair]]),
    )


def refinement_terms(scores: Scores, pseudo: PseudoLabels | None) -> tuple[np.ndarray, np.ndarray]:
    """Per-head loss values (..., K) plus their gradient with respect to scores.heads.

    Head k's value is the weighted cross-entropy -(1/m) sum w_i log s[i, label_i]
    plus, when it has coupled assignments, their cross-entropy averaged per
    assignment: the attribute factor at every head, the object factor from
    head 2 on (head 1's object head already has its own labels). Assignments
    sharing a score cell add up their gradients there. Scores with leading
    axes are scored slice by slice against the same frozen supervision. A
    batch's values are (N, K): each scene sums its own rows and divides by
    its own m, and its padded rows, weighted 0, get no gradient.
    """
    grad = np.zeros(scores.heads.shape)
    grad_objects, grad_attributes = scores.split(grad)
    shape = scores.objects.shape[:-1]  # (..., [N,] K, m)
    if pseudo is None:
        return np.zeros(shape[:-1]), grad
    labels = pseudo.labels
    if labels.shape != shape[-labels.ndim :]:
        raise ValueError(f"pseudo-labels cover {labels.shape} (head, region) cells, scores have {shape}")
    k = shape[-2]
    m = shape[-1] if scores.valid is None else scores.valid.sum(axis=-1)[:, None, None]
    cells = (..., *slice_index(labels.shape[:-1]), np.arange(labels.shape[-1]), labels)
    # a gather behind a leading ... puts that axis innermost in memory; in C
    # order, every sum below adds each slice's terms as it would alone
    p = np.ascontiguousarray(clamp_prob(scores.objects[cells]))
    grad_objects[cells] = -pseudo.weights / (m * p)  # one cell per (head, region), and grad is still zero
    values = (-np.sum(pseudo.weights * np.log(p), axis=-1, keepdims=True) / m)[..., 0]

    h, r = pseudo.heads, pseudo.regions
    if h.size:
        scene = () if pseudo.scenes is None else (pseudo.scenes,)
        num_scenes = 1 if pseudo.scenes is None else pseudo.labels.shape[0]
        # assignments come head by head, scene by scene: group (head, scene) is one slice
        group = h * num_scenes + (pseudo.scenes if scene else 0)
        counts = np.bincount(group, minlength=k * num_scenes)
        n = counts[group]
        at = (..., *scene, h, r, pseudo.columns)
        p_attr = np.ascontiguousarray(clamp_prob(scores.attributes[at]))
        # np.add.at, not fancy-index assignment: cells hit twice must accumulate
        np.add.at(grad_attributes, at, -1.0 / (n * p_attr))
        both = h > 0
        at = (..., *(s[both] for s in scene), h[both], r[both], pseudo.classes[both])
        p_obj = np.ascontiguousarray(clamp_prob(scores.objects[at]))
        # summed in its own zero array and added once: accumulating straight
        # onto the refinement gradient would round differently
        coupled_objects = np.zeros(grad_objects.shape)
        np.add.at(coupled_objects, at, -1.0 / (n[both] * p_obj))
        grad_objects += coupled_objects
        log_attr, log_obj = np.log(p_attr), np.log(p_obj)
        # the object factors skip head 1's assignments, which come first
        counts = counts.tolist()
        skipped, end = sum(counts[:num_scenes]), 0
        for g, count in enumerate(counts):
            start, end = end, end + count
            if not count:
                continue
            j, s = divmod(g, num_scenes)
            total = -log_attr[..., start:end].sum(axis=-1)
            if j > 0:
                total -= log_obj[..., start - skipped : end - skipped].sum(axis=-1)
            values[(..., s, j) if scene else (..., j)] += total / count
    return values, grad
