"""Per-head refinement chain: one head, one class and one pair at a time.

oicr seeds every head at once and scores all heads' refinement terms in
one pass. These loops build the same supervision and terms head by head,
the way the chain is defined, and are kept only as a reference to check
the stacked code against.

Scores are a one-scene batch (N = 1), and the loops read its scene. A
head's supervision here is a dict: labels and weights (m,), seeds
{class: (region, score)} and attrs, its coupled (region, class, column)
assignments in pair order: by class, then by attribute column.
"""

from types import SimpleNamespace

import numpy as np

from capdet.geometry import iou_matrix
from capdet.oicr import initial_scores
from capdet.scorenet import clamp_prob


def seed_and_assign(prev_scores, objects, near, num_classes):
    """Seed each mentioned class at its best previous-head region and propagate by overlap.

    A region claimed by several classes keeps the one whose seed scored
    highest, visiting classes in ascending order with a strict >.
    """
    labels = np.full(len(prev_scores), num_classes, dtype=int)
    weights = np.ones(len(prev_scores))
    best = np.full(len(prev_scores), -np.inf)
    seeds = {}
    for c in sorted(objects):
        seed = int(np.argmax(prev_scores[:, c]))
        score = float(prev_scores[seed, c])
        seeds[c] = (seed, score)
        claimed = near[:, seed] & (score > best)
        best[claimed] = score
        labels[claimed] = c
        weights[claimed] = score
    return {"labels": labels, "weights": weights, "seeds": seeds, "attrs": []}


def attribute_assignments(head_index, prev_obj, prev_attr, labels, near, value_columns, object_seeds):
    """Coupled (region, class, column) assignments for one head; head_index is 1-based."""
    pairs = sorted((c, value_columns[pair]) for c in labels.objects for pair in labels.attribute_pairs.get(c, ()))
    if head_index == 1:
        return [(object_seeds[c][0], c, col) for c, col in pairs]
    out = []
    for c, col in pairs:
        seed = int(np.argmax(prev_obj[:, c] * prev_attr[:, col]))
        out += [(int(i), c, col) for i in np.flatnonzero(near[:, seed])]
    return out


def build_pseudo_labels(scores, labels, boxes, tau, value_columns, coupled=True):
    """Each head's supervision from its predecessor, or None per head without mentioned classes."""
    if not labels.objects:
        return [None] * scores.num_heads
    num_classes = scores.per_region.shape[-1]
    near = iou_matrix(boxes, boxes) >= tau
    s0 = initial_scores(scores.per_region, scores.valid)[0]
    objects, attributes = scores.objects[0], scores.attributes[0]
    pseudos = []
    for j in range(scores.num_heads):
        prev_obj = s0 if j == 0 else objects[j - 1]
        pseudo = seed_and_assign(prev_obj, labels.objects, near, num_classes)
        if coupled:
            prev_attr = None if j == 0 else attributes[j - 1]
            pseudo["attrs"] = attribute_assignments(
                j + 1, prev_obj, prev_attr, labels, near, value_columns, pseudo["seeds"]
            )
        pseudos.append(pseudo)
    return pseudos


def refinement_loss(head_scores, pseudo):
    """Weighted cross-entropy over all regions: -(1/m) sum w_i log s[i, label_i]."""
    m = len(head_scores)
    rows = np.arange(m)
    p = clamp_prob(head_scores[rows, pseudo["labels"]])
    grad = np.zeros_like(head_scores)
    grad[rows, pseudo["labels"]] = -pseudo["weights"] / (m * p)
    return float(-np.sum(pseudo["weights"] * np.log(p)) / m), grad


def coupled_refinement_loss(head_index, obj_scores, attr_scores, assignments):
    """Cross-entropy over the coupled assignments, averaged per assignment; the object factor from head 2 on."""
    grad_obj = np.zeros_like(obj_scores)
    grad_attr = np.zeros_like(attr_scores)
    n = len(assignments)
    rows, classes, cols = np.array(assignments).T
    p_attr = clamp_prob(attr_scores[rows, cols])
    np.add.at(grad_attr, (rows, cols), -1.0 / (n * p_attr))
    total = -np.sum(np.log(p_attr))
    if head_index >= 2:
        p_obj = clamp_prob(obj_scores[rows, classes])
        np.add.at(grad_obj, (rows, classes), -1.0 / (n * p_obj))
        total -= np.sum(np.log(p_obj))
    return float(total / n), grad_obj, grad_attr


def refinement_terms(scores, pseudos):
    """The scene's per-head loss values plus their gradient with respect to scores.heads."""
    grad = np.zeros_like(scores.heads)
    grad_objects, grad_attributes = (a[0] for a in scores.split(grad))
    objects, attributes = scores.objects[0], scores.attributes[0]
    values = []
    for j, pseudo in enumerate(pseudos):
        if pseudo is None:
            values.append(0.0)
            continue
        value, g = refinement_loss(objects[j], pseudo)
        grad_objects[j] += g
        if pseudo["attrs"]:
            cv, g_obj, g_attr = coupled_refinement_loss(
                j + 1, objects[j], attributes[j], pseudo["attrs"]
            )
            value += cv
            grad_objects[j] += g_obj
            grad_attributes[j] += g_attr
        values.append(float(value))
    return values, grad


def assignments(pseudo, sup):
    """pseudo.coupled as parallel arrays of its assignments: heads, regions, classes, columns and scenes.

    They come head by head, pair by pair (sup's pair order), region by
    region: the order oicr.refinement_terms scores them in.
    """
    heads, pair, regions = np.nonzero(pseudo.coupled)
    return SimpleNamespace(
        heads=heads, regions=regions, classes=sup.pair_classes[pair], columns=sup.pair_columns[pair], scenes=sup.pair_scenes[pair]
    )
