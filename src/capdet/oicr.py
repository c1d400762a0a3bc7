"""Instance refinement across a chain of heads.

Head k is supervised by head k-1: for each mentioned class, the region
where the previous head scores highest becomes a seed, every region that
overlaps the seed box by at least tau inherits the class label with the
seed's score as its weight (OICR's seed-score weighting), and everything
else is labeled background. Head 1's predecessor is the image-evidence
block, normalized into a distribution over regions per class (a monotone
per-class transform, so it picks the same seeds as the raw evidence
scores).

Attribute heads join the chain one step late: at head 1 each class's
evidence seed box is labeled with the class's attribute values, trained
by plain cross-entropy on those boxes only. From head 2 on, each
(class, attribute) pair seeds at the region maximizing the previous
head's object-attribute product, propagates by box overlap like the
object labels, and the cross-entropy at head k applies to both the
object and the attribute head, keeping the two coupled.

A coupled assignment is a (region, class, column) triple, the column
indexing the head's (m, V) attribute scores (the model's value_columns),
so the coupled terms gather and scatter every category in one pass.

The overlap mask (IoU >= tau between every pair of a scene's boxes) is
built once per scene-step and shared by every head's seeding; the loss
terms gather their probabilities with index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import scorenet
from .geometry import iou_matrix
from .scorenet import ModelParams, RegionSet, Scores, clamp_prob, softmax_cols
from .textgraph import LabelSet


@dataclass(frozen=True)
class RefinementConfig:
    num_heads: int = 3
    tau: float = 0.5
    # train attribute heads and the coupled refinement terms at all
    attributes_enabled: bool = True

    def __post_init__(self) -> None:
        if self.num_heads < 1:
            raise ValueError(f"need at least one refinement head, got {self.num_heads}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")


@dataclass
class PseudoLabels:
    """Per-region supervision for one head."""

    class_labels: np.ndarray  # (m,) class index, background = num_classes
    weights: np.ndarray  # (m,)
    seeds: dict[int, tuple[int, float]] = field(default_factory=dict)  # class -> (region, score)
    # coupled assignments: (region, class, attribute column)
    attrs: list[tuple[int, int, int]] = field(default_factory=list)


def initial_scores(per_region: np.ndarray) -> np.ndarray:
    """Head 0: the evidence product normalized over regions per class."""
    return softmax_cols(per_region)


def seed_and_assign(
    prev_scores: np.ndarray,
    objects: Iterable[int],
    near: np.ndarray,
    num_classes: int,
) -> PseudoLabels:
    """Seed each mentioned class at its best previous-head region and propagate by overlap.

    near[i, s] says whether region i overlaps region s by at least tau. A
    region claimed by several classes keeps the one whose seed scored
    highest; regions claimed by none are background with weight one.
    """
    prev_scores = np.asarray(prev_scores, dtype=float)
    mentioned = sorted(set(int(c) for c in objects))
    if not mentioned:
        raise ValueError("cannot seed without mentioned classes")
    m = prev_scores.shape[0]
    labels = np.full(m, num_classes, dtype=int)
    weights = np.ones(m, dtype=float)
    best = np.full(m, -np.inf)
    pseudo = PseudoLabels(class_labels=labels, weights=weights)
    for c in mentioned:
        if not 0 <= c < num_classes:
            raise ValueError(f"class index {c} out of range for {num_classes} classes")
        seed = int(np.argmax(prev_scores[:, c]))
        score = float(prev_scores[seed, c])
        pseudo.seeds[c] = (seed, score)
        claimed = near[:, seed] & (score > best)
        best[claimed] = score
        labels[claimed] = c
        weights[claimed] = score
    return pseudo


def refinement_loss(head_scores: np.ndarray, pseudo: PseudoLabels) -> tuple[float, np.ndarray]:
    """Weighted cross-entropy over all regions: -(1/m) sum w_i log s[i, label_i]."""
    head_scores = np.asarray(head_scores, dtype=float)
    m = head_scores.shape[0]
    if pseudo.class_labels.shape != (m,):
        raise ValueError(f"pseudo labels cover {pseudo.class_labels.shape[0]} regions, scores have {m}")
    rows = np.arange(m)
    p = clamp_prob(head_scores[rows, pseudo.class_labels])
    grad = np.zeros_like(head_scores)
    grad[rows, pseudo.class_labels] = -pseudo.weights / (m * p)
    return float(-np.sum(pseudo.weights * np.log(p)) / m), grad


def attribute_assignments(
    head_index: int,
    prev_obj: np.ndarray,
    prev_attr: np.ndarray | None,
    labels: LabelSet,
    near: np.ndarray,
    value_columns: Mapping[tuple[str, str], int],
    object_seeds: Mapping[int, tuple[int, float]],
) -> list[tuple[int, int, int]]:
    """Build the coupled (region, class, column) assignments for one head.

    head_index is 1-based. At head 1 the object seeds are reused and no
    propagation happens; later heads seed per pair at the best previous
    product and propagate to the regions near that seed.

    Assignments carry no weight: the coupled term exists to pull a class
    toward regions its attribute explains, and scaling it by the previous
    product would silence it exactly where the object score has collapsed
    and the rescue is needed.
    """
    pairs = [(c, value_columns[pair]) for c in sorted(labels.objects) for pair in labels.pairs_for(c)]
    if head_index == 1:
        return [(object_seeds[c][0], c, col) for c, col in pairs]
    if prev_attr is None:
        raise ValueError("coupled seeding beyond head 1 needs previous attribute scores")
    classes, cols = [c for c, _ in pairs], [col for _, col in pairs]
    seeds = np.argmax(np.asarray(prev_obj)[:, classes] * np.asarray(prev_attr)[:, cols], axis=0)
    return [(int(i), c, col) for (c, col), seed in zip(pairs, seeds) for i in np.flatnonzero(near[:, seed])]


def coupled_refinement_loss(
    head_index: int,
    obj_scores: np.ndarray,
    attr_scores: np.ndarray,
    assignments: Sequence[tuple[int, int, int]],
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy over the coupled assignments, averaged per assignment.

    At head 1 only the attribute factor is trained (the object head
    already has its own labels there); later heads train both factors.
    Assignments that share a score cell add up their gradients there.
    """
    obj_scores = np.asarray(obj_scores, dtype=float)
    attr_scores = np.asarray(attr_scores, dtype=float)
    grad_obj = np.zeros_like(obj_scores)
    grad_attr = np.zeros_like(attr_scores)
    if not assignments:
        return 0.0, grad_obj, grad_attr
    n = len(assignments)
    rows, classes, cols = np.array(assignments).T
    p_attr = clamp_prob(attr_scores[rows, cols])
    # np.add.at, not fancy-index assignment: cells hit twice must accumulate
    np.add.at(grad_attr, (rows, cols), -1.0 / (n * p_attr))
    total = -np.sum(np.log(p_attr))
    if head_index >= 2:
        p_obj = clamp_prob(obj_scores[rows, classes])
        np.add.at(grad_obj, (rows, classes), -1.0 / (n * p_obj))
        total -= np.sum(np.log(p_obj))
    return float(total / n), grad_obj, grad_attr


def build_pseudo_labels(
    scores: Scores,
    labels: LabelSet,
    boxes: np.ndarray,
    config: RefinementConfig,
    value_columns: Mapping[tuple[str, str], int],
) -> list[PseudoLabels | None]:
    """Freeze each head's supervision from its predecessor's current scores.

    The result is pure data: recomputing losses against it involves no
    argmax over live scores, which is what a gradient check needs.
    """
    num_classes = scores.per_region.shape[1]
    if not labels.objects:
        return [None] * config.num_heads
    near = iou_matrix(boxes, boxes) >= config.tau
    coupled = config.attributes_enabled and bool(labels.attribute_pairs)
    s0 = initial_scores(scores.per_region)
    pseudos: list[PseudoLabels | None] = []
    for j in range(config.num_heads):
        prev_obj = s0 if j == 0 else scores.objects[j - 1]
        pseudo = seed_and_assign(prev_obj, labels.objects, near, num_classes)
        if coupled:
            # head 1 bootstraps from the evidence seeds, so it has no previous attribute scores
            prev_attr = None if j == 0 else scores.attributes[j - 1]
            pseudo.attrs = attribute_assignments(
                j + 1, prev_obj, prev_attr, labels, near, value_columns, pseudo.seeds
            )
        pseudos.append(pseudo)
    return pseudos


def refinement_terms(
    scores: Scores,
    pseudos: Sequence[PseudoLabels | None],
) -> tuple[list[float], np.ndarray]:
    """Per-head loss values plus their gradient with respect to scores.heads."""
    grad = np.zeros_like(scores.heads)
    grad_objects, grad_attributes = scores.split(grad)
    values: list[float] = []
    for j, pseudo in enumerate(pseudos):
        if pseudo is None:
            values.append(0.0)
            continue
        value, g = refinement_loss(scores.objects[j], pseudo)
        grad_objects[j] += g
        if pseudo.attrs:
            cv, g_obj, g_attr = coupled_refinement_loss(
                j + 1, scores.objects[j], scores.attributes[j], pseudo.attrs
            )
            value += cv
            grad_objects[j] += g_obj
            grad_attributes[j] += g_attr
        values.append(float(value))
    return values, grad


def run_refinement(
    params: ModelParams,
    regions: RegionSet,
    labels: LabelSet,
    config: RefinementConfig,
) -> tuple[list[float], np.ndarray, list[PseudoLabels | None]]:
    """Forward the model, freeze supervision per head, and score the chain."""
    scores = scorenet.forward(params, regions)
    pseudos = build_pseudo_labels(scores, labels, regions.boxes, config, params.value_columns)
    values, grad = refinement_terms(scores, pseudos)
    return values, grad, pseudos
