import dataclasses
import math

import numpy as np
import pytest
import refinement_reference as reference
from head_reference import packed_scores
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capdet.geometry import iou_matrix
from capdet.oicr import PseudoLabels, build_pseudo_labels, initial_scores, overlap_masks, refinement_terms
from capdet.scorenet import softmax_cols
from capdet.textgraph import LabelSet
from capdet.trainer import TrainConfig
from capdet.weakloss import Supervision, compile_supervision

# (category, value) -> attribute column, as ModelParams.value_columns lays them out
COLS = {("color", "red"): 0, ("color", "brown"): 1}

# two heavily overlapping boxes (IoU 0.8), one off on its own
BOXES = np.array(
    [
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 0.8],
        [2.0, 2.0, 3.0, 3.0],
    ]
)


def labels_for(objects, pairs=None):
    return LabelSet(objects=set(objects), attribute_pairs={k: set(v) for k, v in (pairs or {}).items()})


def compiled(objects, pairs=None, num_classes=2, cols=COLS, with_pairs=True):
    return compile_supervision([labels_for(objects, pairs)], num_classes, cols, pairs=with_pairs)


def with_background(class_scores):
    """(m, C) class scores plus a background column, as a head's (m, C + 1) object scores."""
    class_scores = np.asarray(class_scores, dtype=float)
    return np.column_stack([class_scores, 1.0 - class_scores.sum(axis=1)])


def frozen(labels, weights, coupled=()):
    """One scene's Supervision and PseudoLabels from (K, m) labels and weights and distinct (head, region, class, column) tuples.

    The supervision's pairs are the tuples' (class, column) pairs.
    """
    coupled = list(coupled)
    assert len(set(coupled)) == len(coupled), "a coupled assignment is a cell of a mask: none repeats"
    labels = np.asarray(labels)
    classes, columns = np.array(coupled, dtype=int).reshape(-1, 4)[:, 2:].T
    pairs = np.zeros((1, classes.max(initial=0) + 1, columns.max(initial=0) + 1), dtype=bool)
    pairs[0, classes, columns] = True
    sup = Supervision(pairs.any(axis=-1), pairs)
    pair_of = {pair: i for i, pair in enumerate(zip(sup.pair_classes.tolist(), sup.pair_columns.tolist()))}
    mask = np.zeros((len(labels), sup.pair_classes.size, labels.shape[-1]), dtype=bool)
    for h, r, c, col in coupled:
        mask[h, pair_of[c, col], r] = True
    pseudo = PseudoLabels(
        labels=labels[None], weights=np.asarray(weights, dtype=float)[None],
        seeds=np.zeros((len(labels), 0), dtype=int), coupled=mask,
    )
    return sup, pseudo


def both_stages(scores, sup, pseudo):
    """refinement_terms' values and the gradient its gradient stage returns."""
    values, gradient = refinement_terms(scores, sup, pseudo)
    return values, gradient()


def near_for(boxes, tau):
    """The overlap mask of one scene's (m, 4) boxes, as a one-scene batch's (1, m, m)."""
    return overlap_masks(boxes[None], tau, np.ones((1, len(boxes)), dtype=bool))


def lone_initial_scores(per_region):
    """initial_scores of one scene's (m, C) evidence, run as a one-scene batch."""
    return initial_scores(per_region[None], np.ones((1, len(per_region)), dtype=bool))[0]


def second_head(class_scores, objects, tau=0.5):
    """Head 2's labels, weights and seeds, seeded from head 1's class scores over BOXES."""
    prev = with_background(class_scores)
    num_classes = prev.shape[1] - 1
    m = len(prev)
    scores = packed_scores(
        [prev, np.full_like(prev, 0.5)], [np.zeros((m, 0))] * 2,
        np.full((m, num_classes), 0.5), np.full(num_classes, 0.7),
    )
    pseudo = build_pseudo_labels(scores, compiled(objects, num_classes=num_classes), near_for(BOXES, tau))
    return pseudo.labels[0, 1], pseudo.weights[0, 1], pseudo.seeds[1]


class TestRefinementConfig:
    """The refinement chain's settings are TrainConfig's num_heads and tau."""

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.num_heads == 3
        assert cfg.tau == 0.5

    def test_validation(self):
        for bad in ({"num_heads": 0}, {"tau": 0.0}, {"tau": 1.0}, {"tau": 1.5}, {"tau": -0.5}):
            with pytest.raises(ValueError):
                TrainConfig(**bad)


class TestInitialScores:
    def test_column_normalization(self):
        rng = np.random.default_rng(2)
        per_region = rng.uniform(0.0, 1.0, size=(5, 3))
        s0 = lone_initial_scores(per_region)
        assert np.allclose(s0.sum(axis=0), 1.0)

    def test_argmax_preserved_per_class(self):
        # normalization is monotone per class, so seeds match raw evidence
        rng = np.random.default_rng(3)
        per_region = rng.uniform(0.0, 1.0, size=(6, 4))
        s0 = lone_initial_scores(per_region)
        assert np.array_equal(np.argmax(s0, axis=0), np.argmax(per_region, axis=0))


class TestSeedAndAssign:
    def test_propagation_by_overlap(self):
        # class 0 seeds at region 0 with score 0.9; region 1 overlaps it
        # at 0.8 >= tau and inherits the label, region 2 stays background
        labels, weights, seeds = second_head([[0.9], [0.5], [0.2]], {0})
        assert seeds.tolist() == [0]
        assert labels.tolist() == [0, 0, 1]
        assert weights.tolist() == [0.9, 0.9, 1.0]

    def test_background_weight_is_one(self):
        # tau above the 0.8 overlap: only the seed itself is labeled
        labels, weights, _ = second_head([[0.9], [0.1], [0.1]], {0}, tau=0.85)
        assert labels.tolist() == [0, 1, 1]
        assert weights.tolist() == [0.9, 1.0, 1.0]

    def test_conflict_resolved_by_seed_score(self):
        # both classes seed inside the overlapping pair; the stronger
        # seed (class 1, 0.8) claims the shared region
        labels, weights, seeds = second_head([[0.6, 0.1], [0.1, 0.8], [0.0, 0.0]], {0, 1})
        assert seeds.tolist() == [0, 1]
        assert labels.tolist() == [1, 1, 2]
        assert weights.tolist() == [0.8, 0.8, 1.0]

    def test_tied_seeds_go_to_lowest_class(self):
        labels, weights, seeds = second_head([[0.4, 0.4], [0.1, 0.1], [0.0, 0.0]], {0, 1})
        assert seeds.tolist() == [0, 0]
        assert labels.tolist() == [0, 0, 2]
        assert weights.tolist() == [0.4, 0.4, 1.0]

    def test_tau_boundary_inclusive(self):
        # the evidence seeds class 0 at region 0, which region 1 overlaps at 0.8
        scores = packed_scores([np.full((3, 2), 0.5)], [np.zeros((3, 0))], [[0.9], [0.1], [0.1]], [0.7])
        overlap = float(iou_matrix(BOXES, BOXES)[1, 0])
        for tau, label in ((overlap, 0), (overlap + 1e-9, 1)):
            pseudo = build_pseudo_labels(scores, compiled({0}, num_classes=1), near_for(BOXES, tau))
            assert pseudo.labels[0, 0, 1] == label

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError, match="class index 5"):
            compiled({5}, num_classes=2)


def object_term(head_scores, labels, weights):
    """One head's refinement value and object gradient for frozen labels and weights."""
    m = len(head_scores)
    num_classes = head_scores.shape[1] - 1
    scores = packed_scores([head_scores], [np.zeros((m, 0))], np.zeros((m, num_classes)), np.full(num_classes, 0.7))
    values, grad = both_stages(scores, *frozen([labels], [weights]))
    return values[0, 0], scores.split(grad)[0][0, 0]


class TestRefinementLoss:
    def test_two_region_example(self):
        # unit weights, picked scores 0.5 and 0.25:
        # -(log 0.5 + log 0.25) / 2
        value, grad = object_term(np.array([[0.5, 0.5], [0.25, 0.75]]), [0, 0], [1.0, 1.0])
        assert value == pytest.approx(1.0397207708399179, abs=1e-12)
        assert grad[0, 0] == pytest.approx(-1.0 / (2 * 0.5))
        assert grad[1, 0] == pytest.approx(-1.0 / (2 * 0.25))
        assert not np.any(grad[:, 1])

    def test_weights_scale_values_not_grad_positions(self):
        value, grad = object_term(np.array([[0.5, 0.5], [0.25, 0.75]]), [0, 0], [0.5, 2.0])
        expected = -(0.5 * math.log(0.5) + 2.0 * math.log(0.25)) / 2
        assert value == pytest.approx(expected)
        assert grad[0, 0] == pytest.approx(-0.5 / (2 * 0.5))
        assert grad[1, 0] == pytest.approx(-2.0 / (2 * 0.25))
        assert not np.any(grad[:, 1])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_finite_difference(self, data):
        # every head's weighted cross-entropy against frozen labels and weights
        k, m, num_classes = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        heads = data.draw(arrays(np.float64, (k, m, num_classes + 1), elements=st.floats(0.05, 0.95)))
        labels = data.draw(arrays(np.int64, (k, m), elements=st.integers(0, num_classes)))
        weights = data.draw(arrays(np.float64, (k, m), elements=st.floats(0.1, 1.0)))
        scores = packed_scores(list(heads), [np.zeros((m, 0))] * k, np.zeros((m, num_classes)), np.full(num_classes, 0.7))
        assert_central_differences(scores, *frozen(labels, weights))

    def test_matches_per_region_loop(self):
        rng = np.random.default_rng(43)
        heads = rng.uniform(0.01, 1.0, size=(2, 7, 4))
        labels = rng.integers(0, 4, size=(2, 7))
        weights = rng.uniform(0.2, 1.0, size=(2, 7))
        scores = packed_scores(list(heads), [np.zeros((7, 0))] * 2, np.zeros((7, 3)), np.full(3, 0.7))
        values, grad = both_stages(scores, *frozen(labels, weights))
        for j in range(2):
            ref_grad = np.zeros_like(heads[j])
            ref_value = 0.0
            for i, (c, w) in enumerate(zip(labels[j], weights[j])):
                ref_value -= w * math.log(heads[j][i, c])
                ref_grad[i, c] -= w / (7 * heads[j][i, c])
            assert values[0, j] == pytest.approx(ref_value / 7, rel=1e-12)
            assert np.array_equal(scores.split(grad)[0][0, j], ref_grad)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            object_term(np.ones((2, 2)), [0], [1.0])


class TestAttributeAssignments:
    def test_head_one_reuses_object_seeds(self):
        # the evidence seeds class 0 at region 2; head 1's pair sits there
        scores = packed_scores([np.full((3, 2), 0.5)], [np.full((3, 2), 0.5)], [[0.1], [0.1], [0.7]], [0.7])
        sup = compiled({0}, {0: {("color", "red")}}, num_classes=1)
        pseudo = build_pseudo_labels(scores, sup, near_for(BOXES, 0.5))
        assert pseudo.seeds[0].tolist() == [2]
        a = reference.assignments(pseudo, sup)
        coupled = np.stack([a.heads, a.regions, a.classes, a.columns], axis=1)
        assert coupled.tolist() == [[0, 2, 0, 0]]

    def test_head_one_no_propagation(self):
        # seed sits in the overlapping pair but nothing spreads at head 1
        scores = packed_scores([np.full((3, 2), 0.5)], [np.full((3, 2), 0.5)], [[0.9], [0.1], [0.1]], [0.7])
        sup = compiled({0}, {0: {("color", "red")}}, num_classes=1)
        pseudo = build_pseudo_labels(scores, sup, near_for(BOXES, 0.5))
        assert reference.assignments(pseudo, sup).heads.size == 1

    def test_later_heads_seed_at_product_argmax(self):
        prev_obj = np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        prev_attr = np.array([[0.1, 0.9], [0.9, 0.1], [0.5, 0.5]])
        scores = packed_scores(
            [prev_obj, prev_obj], [prev_attr, prev_attr], np.full((3, 1), 0.5), [0.7]
        )
        sup = compiled({0}, {0: {("color", "red")}}, num_classes=1)
        a = reference.assignments(build_pseudo_labels(scores, sup, near_for(BOXES, 0.5)), sup)
        # products for (class 0, red): 0.09, 0.45, 0.05 -> seed region 1
        later = a.heads == 1
        assert sorted(a.regions[later].tolist()) == [0, 1]  # region 0 overlaps the seed at 0.8
        assert set(a.classes[later].tolist()) == {0}
        assert set(a.columns[later].tolist()) == {COLS["color", "red"]}


def coupled_term(head, obj, attr, assignments):
    """The 1-based head's coupled value and gradients for (region, class, column) assignments.

    The object term is silenced with zero weights, so the head's value and
    gradients are the coupled term's alone.
    """
    m, num_classes = len(obj), obj.shape[1] - 1
    scores = packed_scores([obj] * head, [attr] * head, np.zeros((m, num_classes)), np.full(num_classes, 0.7))
    sup, pseudo = frozen(np.zeros((head, m), dtype=int), np.zeros((head, m)), [(head - 1, *a) for a in assignments])
    values, grad = both_stages(scores, sup, pseudo)
    grad_objects, grad_attributes = scores.split(grad)
    return values[0, -1], grad_objects[0, -1], grad_attributes[0, -1]


class TestCoupledRefinementLoss:
    def test_head_one_trains_attribute_factor_only(self):
        obj = np.array([[0.5, 0.5]])
        attr = np.array([[0.25, 0.75]])
        value, g_obj, g_attr = coupled_term(1, obj, attr, [(0, 0, 0)])
        assert value == pytest.approx(-math.log(0.25))
        assert not np.any(g_obj)
        assert g_attr[0, 0] == pytest.approx(-1.0 / 0.25)

    def test_later_heads_train_both_factors(self):
        obj = np.array([[0.5, 0.5]])
        attr = np.array([[0.25, 0.75]])
        value, g_obj, g_attr = coupled_term(2, obj, attr, [(0, 0, 0)])
        assert value == pytest.approx(-(math.log(0.25) + math.log(0.5)))
        assert g_obj[0, 0] == pytest.approx(-1.0 / 0.5)
        assert g_attr[0, 0] == pytest.approx(-1.0 / 0.25)

    def test_averaged_per_assignment(self):
        obj = np.array([[0.5, 0.5], [0.5, 0.5]])
        attr = np.array([[0.25, 0.75], [0.25, 0.75]])
        one = [(0, 0, 0)]
        two = one + [(1, 0, 0)]
        v1, *_ = coupled_term(2, obj, attr, one)
        v2, *_ = coupled_term(2, obj, attr, two)
        assert v2 == pytest.approx(v1)  # same per-assignment value, n doubles

    def test_shared_cells_accumulate(self):
        # two classes share one attribute cell, two pairs of class 0 share
        # one object cell; each cell must receive both gradients
        # columns: color red, color brown, size small, size large
        obj = np.array([[0.5, 0.25, 0.25]])
        attr = np.array([[0.25, 0.75, 0.5, 0.5]])
        _, g_obj, g_attr = coupled_term(2, obj, attr, [(0, 0, 0), (0, 1, 0), (0, 0, 2)])
        assert g_attr[0, 0] == pytest.approx(-2.0 / (3 * 0.25))
        assert g_attr[0, 2] == pytest.approx(-1.0 / (3 * 0.5))
        assert g_obj[0, 0] == pytest.approx(-2.0 / (3 * 0.5))
        assert g_obj[0, 1] == pytest.approx(-1.0 / (3 * 0.25))

    def test_matches_per_assignment_loop(self):
        # reference: the per-assignment loop, accumulating in list order
        rng = np.random.default_rng(41)
        obj = rng.uniform(0.01, 1.0, size=(4, 3))
        attr = rng.uniform(0.01, 1.0, size=(4, 5))
        # distinct (region, class, column) cells, pair by pair and region by region, as a mask holds them
        cells = {(int(rng.integers(4)), int(rng.integers(2)), int(rng.integers(5))) for _ in range(30)}
        assignments = sorted(cells, key=lambda cell: (cell[1], cell[2], cell[0]))
        for head in (1, 2):
            n = len(assignments)
            ref_obj = np.zeros_like(obj)
            ref_attr = np.zeros_like(attr)
            ref_value = 0.0
            for region, c, col in assignments:
                ref_value -= math.log(attr[region, col])
                ref_attr[region, col] -= 1.0 / (n * attr[region, col])
                if head >= 2:
                    ref_value -= math.log(obj[region, c])
                    ref_obj[region, c] -= 1.0 / (n * obj[region, c])
            value, g_obj, g_attr = coupled_term(head, obj, attr, assignments)
            assert value == pytest.approx(ref_value / n, rel=1e-12)
            assert np.array_equal(g_obj, ref_obj)
            assert np.array_equal(g_attr, ref_attr)

    def test_empty_assignments(self):
        value, g_obj, g_attr = coupled_term(2, np.ones((2, 2)), np.ones((2, 2)), [])
        assert value == 0.0
        assert not np.any(g_obj)
        assert not np.any(g_attr)


def make_inputs(rng, m=6, num_classes=2, num_heads=3):
    objects = [softmax_cols(rng.uniform(size=(m, num_classes + 1)).T).T for _ in range(num_heads)]
    objects = [o / o.sum(axis=1, keepdims=True) for o in objects]
    attrs = []
    for _ in range(num_heads):
        a = rng.uniform(0.05, 1.0, size=(m, 2))
        attrs.append(a / a.sum(axis=1, keepdims=True))
    per_region = rng.uniform(0.0, 0.5, size=(m, num_classes))
    y = 1.0 / (1.0 + np.exp(-per_region.sum(axis=0)))
    scores = packed_scores(objects, attrs, per_region, y)
    boxes = []
    for _ in range(m):
        x0, y0 = rng.uniform(0, 2, 2)
        boxes.append([x0, y0, x0 + rng.uniform(0.2, 1.0), y0 + rng.uniform(0.2, 1.0)])
    return scores, np.array(boxes)


class TestBuildPseudoLabels:
    def test_chain_uses_previous_head(self):
        rng = np.random.default_rng(61)
        scores, boxes = make_inputs(rng)
        pseudo = build_pseudo_labels(scores, compiled({0, 1}), near_for(boxes, 0.5))
        assert pseudo.labels.shape == (1, 3, 6)
        s0 = lone_initial_scores(scores.per_region[0])
        for c in (0, 1):
            assert pseudo.seeds[0, c] == int(np.argmax(s0[:, c]))
            assert pseudo.seeds[1, c] == int(np.argmax(scores.objects[0, 0][:, c]))
            assert pseudo.seeds[2, c] == int(np.argmax(scores.objects[0, 1][:, c]))

    def test_no_objects_gives_background_of_weight_zero(self):
        rng = np.random.default_rng(62)
        scores, boxes = make_inputs(rng)
        sup = compiled(set())
        pseudo = build_pseudo_labels(scores, sup, near_for(boxes, 0.5))
        assert pseudo.labels.tolist() == [[[2] * 6] * 3]
        assert pseudo.weights.tolist() == [[[0.0] * 6] * 3]
        assert pseudo.seeds.shape == (3, 0) and reference.assignments(pseudo, sup).heads.size == 0

    def test_attributes_disabled_leaves_attrs_empty(self):
        rng = np.random.default_rng(63)
        scores, boxes = make_inputs(rng)
        sup = compiled({0}, {0: {("color", "red")}}, with_pairs=False)
        a = reference.assignments(build_pseudo_labels(scores, sup, near_for(boxes, 0.5)), sup)
        assert a.heads.size == a.regions.size == a.classes.size == a.columns.size == 0


def assert_central_differences(scores, sup, pseudo, h=1e-6):
    """The analytic gradient of the summed head values against central differences in every score."""
    _, grad = both_stages(scores, sup, pseudo)

    def total(heads):
        values, _ = refinement_terms(dataclasses.replace(scores, heads=heads), sup, pseudo)
        return values.sum()

    for index in np.ndindex(scores.heads.shape):
        bumped = scores.heads.copy()
        bumped[index] += h
        up = total(bumped)
        bumped[index] -= 2 * h
        numeric = (up - total(bumped)) / (2 * h)
        assert grad[index] == pytest.approx(numeric, rel=1e-6, abs=1e-6), index


PAIR_COLS = {("color", "red"): 0, ("color", "green"): 1, ("color", "blue"): 2, ("size", "small"): 3, ("size", "large"): 4}

# the first box overlaps the others at exactly 0.8, 0.5 and 1/3; the last is apart
BOX_POOL = np.array(
    [
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 0.8],
        [0.0, 0.0, 0.5, 1.0],
        [0.5, 0.0, 1.5, 1.0],
        [2.0, 2.0, 3.0, 3.0],
    ]
)


@st.composite
def chains(draw, score_values=None):
    """A scene for the refinement chain: stacked scores, boxes, labels, tau.

    With score_values unset, every score comes from a few values, zeros
    among them, so seeds tie and clamps bite; boxes are drawn from BOX_POOL
    with repeats, and tau is often one of the drawn boxes' own overlaps.
    """
    k, m, num_classes = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]) if score_values is None else score_values
    objects = draw(arrays(np.float64, (k, m, num_classes + 1), elements=values))
    attributes = draw(arrays(np.float64, (k, m, len(PAIR_COLS)), elements=values))
    per_region = draw(arrays(np.float64, (m, num_classes), elements=values))
    scores = packed_scores(list(objects), list(attributes), per_region, np.full(num_classes, 0.7))
    boxes = BOX_POOL[draw(st.lists(st.integers(0, len(BOX_POOL) - 1), min_size=m, max_size=m))]
    overlaps = sorted({float(v) for v in iou_matrix(boxes, boxes).ravel() if 0.0 < v < 1.0})
    taus = st.floats(0.05, 0.95)
    tau = draw(st.sampled_from(overlaps) | taus if overlaps else taus)
    mentioned = draw(st.sets(st.integers(0, num_classes - 1)))
    pairs = {c: draw(st.sets(st.sampled_from(sorted(PAIR_COLS)), max_size=3)) for c in mentioned}
    return scores, boxes, labels_for(mentioned, pairs), tau, draw(st.booleans())


class TestRefinementTerms:
    def test_values_and_grads_line_up(self):
        rng = np.random.default_rng(71)
        scores, boxes = make_inputs(rng)
        sup = compiled({0}, {0: {("color", "red")}})
        values, grad = both_stages(scores, sup, build_pseudo_labels(scores, sup, near_for(boxes, 0.5)))
        assert values.shape == (1, 3)
        assert all(v > 0 for v in values[0])
        grad_objects, _ = scores.split(grad)
        for j in range(3):
            assert np.any(grad_objects[0, j])
        # the gradient covers the head columns only: no evidence gradient
        assert grad.shape == scores.heads.shape

    def test_unmentioned_scene_contributes_zero(self):
        rng = np.random.default_rng(72)
        scores, boxes = make_inputs(rng)
        sup = compiled(set())
        values, grad = both_stages(scores, sup, build_pseudo_labels(scores, sup, near_for(boxes, 0.5)))
        assert values.tolist() == [[0.0, 0.0, 0.0]]
        assert not np.any(grad)

    @settings(max_examples=60, deadline=None)
    @given(chains(score_values=st.floats(0.05, 0.95)))
    def test_finite_difference_with_frozen_pseudos(self, chain):
        # supervision frozen, scores free: the analytic gradient of the
        # summed head values must match central differences; the scores
        # keep clear of the clamp, where the loss has a kink
        scores, boxes, labels, tau, _ = chain
        sup = compile_supervision([labels], scores.per_region.shape[-1], PAIR_COLS)
        assert_central_differences(scores, sup, build_pseudo_labels(scores, sup, near_for(boxes, tau)))


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(chains())
    def test_stacked_chain_equals_per_head_loop(self, chain):
        scores, boxes, labels, tau, coupled = chain
        num_classes = scores.per_region.shape[-1]
        sup = compile_supervision([labels], num_classes, PAIR_COLS, pairs=coupled)
        pseudo = build_pseudo_labels(scores, sup, near_for(boxes, tau))
        expected = reference.build_pseudo_labels(scores, labels, boxes, tau, PAIR_COLS, coupled)
        values, grad = both_stages(scores, sup, pseudo)
        ref_values, ref_grad = reference.refinement_terms(scores, expected)
        assert np.array_equal(values, [ref_values])
        assert np.array_equal(grad, ref_grad)
        if not labels.objects:
            assert expected == [None] * scores.num_heads
            assert (pseudo.labels == num_classes).all() and not pseudo.weights.any() and not pseudo.coupled.any()
            return
        assert np.array_equal(pseudo.labels, [[head["labels"] for head in expected]])
        assert np.array_equal(pseudo.weights, [[head["weights"] for head in expected]])
        a = reference.assignments(pseudo, sup)
        assert not a.scenes.any()
        assert pseudo.seeds.tolist() == [[head["seeds"][c][0] for c in sorted(labels.objects)] for head in expected]
        coupled_rows = np.stack([a.heads, a.regions, a.classes, a.columns], axis=1).tolist()
        assert coupled_rows == [[j, *a] for j, head in enumerate(expected) for a in head["attrs"]]
