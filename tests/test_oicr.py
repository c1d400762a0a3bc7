import dataclasses
import math

import numpy as np
import pytest
from head_reference import packed_scores

from capdet.geometry import iou_matrix
from capdet.oicr import (
    PseudoLabels,
    RefinementConfig,
    attribute_assignments,
    build_pseudo_labels,
    coupled_refinement_loss,
    initial_scores,
    refinement_loss,
    refinement_terms,
    seed_and_assign,
)
from capdet.scorenet import softmax_cols
from capdet.textgraph import LabelSet

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


def near(tau):
    return iou_matrix(BOXES, BOXES) >= tau


def labels_for(objects, pairs=None):
    return LabelSet(objects=set(objects), attribute_pairs={k: set(v) for k, v in (pairs or {}).items()})


class TestRefinementConfig:
    def test_defaults(self):
        cfg = RefinementConfig()
        assert cfg.num_heads == 3
        assert cfg.tau == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RefinementConfig(num_heads=0)
        with pytest.raises(ValueError):
            RefinementConfig(tau=0.0)
        with pytest.raises(ValueError):
            RefinementConfig(tau=1.0)


class TestInitialScores:
    def test_column_normalization(self):
        rng = np.random.default_rng(2)
        per_region = rng.uniform(0.0, 1.0, size=(5, 3))
        s0 = initial_scores(per_region)
        assert np.allclose(s0.sum(axis=0), 1.0)

    def test_argmax_preserved_per_class(self):
        # normalization is monotone per class, so seeds match raw evidence
        rng = np.random.default_rng(3)
        per_region = rng.uniform(0.0, 1.0, size=(6, 4))
        s0 = initial_scores(per_region)
        assert np.array_equal(np.argmax(s0, axis=0), np.argmax(per_region, axis=0))


class TestSeedAndAssign:
    def test_propagation_by_overlap(self):
        # class 0 seeds at region 0 with score 0.9; region 1 overlaps it
        # at 0.8 >= tau and inherits the label, region 2 stays background
        prev = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        pseudo = seed_and_assign(prev, {0}, near(0.5), num_classes=1)
        assert pseudo.seeds == {0: (0, 0.9)}
        assert pseudo.class_labels.tolist() == [0, 0, 1]
        assert pseudo.weights.tolist() == [0.9, 0.9, 1.0]

    def test_background_weight_is_one(self):
        prev = np.array([[0.9], [0.1], [0.1]])
        # tau above the 0.8 overlap: only the seed itself is labeled
        pseudo = seed_and_assign(prev, {0}, near(0.85), num_classes=1)
        assert pseudo.class_labels.tolist() == [0, 1, 1]
        assert pseudo.weights.tolist() == [0.9, 1.0, 1.0]

    def test_conflict_resolved_by_seed_score(self):
        # both classes seed inside the overlapping pair; the stronger
        # seed (class 1, 0.8) claims the shared region
        prev = np.array([[0.6, 0.1], [0.1, 0.8], [0.0, 0.0]])
        pseudo = seed_and_assign(prev, {0, 1}, near(0.5), num_classes=2)
        assert pseudo.seeds == {0: (0, 0.6), 1: (1, 0.8)}
        assert pseudo.class_labels.tolist() == [1, 1, 2]
        assert pseudo.weights.tolist() == [0.8, 0.8, 1.0]

    def test_tau_boundary_inclusive(self):
        # the overlap mask is built from tau in build_pseudo_labels; the
        # evidence seeds class 0 at region 0, which region 1 overlaps at 0.8
        scores = packed_scores([np.full((3, 2), 0.5)], [np.zeros((3, 0))], [[0.9], [0.1], [0.1]], [0.7])
        overlap = float(iou_matrix(BOXES, BOXES)[1, 0])
        for tau, label in ((overlap, 0), (overlap + 1e-9, 1)):
            cfg = RefinementConfig(num_heads=1, tau=tau)
            (pseudo,) = build_pseudo_labels(scores, labels_for({0}), BOXES, cfg, COLS)
            assert pseudo.class_labels[1] == label

    def test_empty_objects_rejected(self):
        with pytest.raises(ValueError):
            seed_and_assign(np.ones((3, 1)), set(), near(0.5), 1)

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError):
            seed_and_assign(np.ones((3, 2)), {5}, near(0.5), 2)


class TestRefinementLoss:
    def test_two_region_example(self):
        # unit weights, picked scores 0.5 and 0.25:
        # -(log 0.5 + log 0.25) / 2
        scores = np.array([[0.5, 0.5], [0.25, 0.75]])
        pseudo = PseudoLabels(
            class_labels=np.array([0, 0]), weights=np.array([1.0, 1.0]),
        )
        value, grad = refinement_loss(scores, pseudo)
        assert value == pytest.approx(1.0397207708399179, abs=1e-12)
        assert grad[0, 0] == pytest.approx(-1.0 / (2 * 0.5))
        assert grad[1, 0] == pytest.approx(-1.0 / (2 * 0.25))
        assert not np.any(grad[:, 1])

    def test_weights_scale_values_not_grad_positions(self):
        scores = np.array([[0.5, 0.5], [0.25, 0.75]])
        pseudo = PseudoLabels(
            class_labels=np.array([0, 0]), weights=np.array([0.5, 2.0]),
        )
        value, grad = refinement_loss(scores, pseudo)
        expected = -(0.5 * math.log(0.5) + 2.0 * math.log(0.25)) / 2
        assert value == pytest.approx(expected)
        assert grad[0, 0] == pytest.approx(-0.5 / (2 * 0.5))
        assert grad[1, 0] == pytest.approx(-2.0 / (2 * 0.25))
        assert not np.any(grad[:, 1])

    def test_finite_difference(self):
        rng = np.random.default_rng(53)
        scores = rng.uniform(0.05, 1.0, size=(4, 3))
        scores /= scores.sum(axis=1, keepdims=True)
        pseudo = PseudoLabels(
            class_labels=np.array([0, 2, 1, 2]),
            weights=rng.uniform(0.2, 1.0, size=4),
        )
        _, grad = refinement_loss(scores, pseudo)
        h = 1e-7
        for i in range(4):
            for c in range(3):
                bumped = scores.copy()
                bumped[i, c] += h
                up, _ = refinement_loss(bumped, pseudo)
                bumped[i, c] -= 2 * h
                down, _ = refinement_loss(bumped, pseudo)
                assert grad[i, c] == pytest.approx((up - down) / (2 * h), abs=1e-5)

    def test_matches_per_region_loop(self):
        rng = np.random.default_rng(43)
        scores = rng.uniform(0.01, 1.0, size=(7, 4))
        pseudo = PseudoLabels(class_labels=rng.integers(0, 4, size=7), weights=rng.uniform(0.2, 1.0, size=7))
        value, grad = refinement_loss(scores, pseudo)
        ref_grad = np.zeros_like(scores)
        ref_value = 0.0
        for i, (c, w) in enumerate(zip(pseudo.class_labels, pseudo.weights)):
            ref_value -= w * math.log(scores[i, c])
            ref_grad[i, c] -= w / (7 * scores[i, c])
        assert value == pytest.approx(ref_value / 7, rel=1e-12)
        assert np.array_equal(grad, ref_grad)

    def test_shape_mismatch(self):
        pseudo = PseudoLabels(class_labels=np.array([0]), weights=np.array([1.0]))
        with pytest.raises(ValueError):
            refinement_loss(np.ones((2, 2)), pseudo)


class TestAttributeAssignments:
    def test_head_one_reuses_object_seeds(self):
        labels = labels_for({0}, {0: {("color", "red")}})
        out = attribute_assignments(
            1, np.zeros((3, 2)), None, labels, near(0.5), COLS,
            object_seeds={0: (2, 0.7)},
        )
        assert out == [(2, 0, 0)]

    def test_head_one_no_propagation(self):
        # seed sits in the overlapping pair but nothing spreads at head 1
        labels = labels_for({0}, {0: {("color", "red")}})
        out = attribute_assignments(
            1, np.zeros((3, 2)), None, labels, near(0.5), COLS,
            object_seeds={0: (0, 0.9)},
        )
        assert len(out) == 1

    def test_later_heads_seed_at_product_argmax(self):
        labels = labels_for({0}, {0: {("color", "red")}})
        prev_obj = np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        prev_attr = np.array([[0.1, 0.9], [0.9, 0.1], [0.5, 0.5]])
        # products for (class 0, red): 0.09, 0.45, 0.05 -> seed region 1
        out = attribute_assignments(
            2, prev_obj, prev_attr, labels, near(0.5), COLS, object_seeds={},
        )
        regions = sorted(r for r, *_ in out)
        assert regions == [0, 1]  # region 0 overlaps the seed at 0.8
        for _, c, col in out:
            assert (c, col) == (0, COLS["color", "red"])

    def test_later_heads_need_attr_scores(self):
        labels = labels_for({0}, {0: {("color", "red")}})
        with pytest.raises(ValueError):
            attribute_assignments(
                2, np.zeros((3, 2)), None, labels, near(0.5), COLS, object_seeds={},
            )


class TestCoupledRefinementLoss:
    def test_head_one_trains_attribute_factor_only(self):
        obj = np.array([[0.5, 0.5]])
        attr = np.array([[0.25, 0.75]])
        assignments = [(0, 0, 0)]
        value, g_obj, g_attr = coupled_refinement_loss(1, obj, attr, assignments)
        assert value == pytest.approx(-math.log(0.25))
        assert not np.any(g_obj)
        assert g_attr[0, 0] == pytest.approx(-1.0 / 0.25)

    def test_later_heads_train_both_factors(self):
        obj = np.array([[0.5, 0.5]])
        attr = np.array([[0.25, 0.75]])
        assignments = [(0, 0, 0)]
        value, g_obj, g_attr = coupled_refinement_loss(2, obj, attr, assignments)
        assert value == pytest.approx(-(math.log(0.25) + math.log(0.5)))
        assert g_obj[0, 0] == pytest.approx(-1.0 / 0.5)
        assert g_attr[0, 0] == pytest.approx(-1.0 / 0.25)

    def test_averaged_per_assignment(self):
        obj = np.array([[0.5, 0.5], [0.5, 0.5]])
        attr = np.array([[0.25, 0.75], [0.25, 0.75]])
        one = [(0, 0, 0)]
        two = one + [(1, 0, 0)]
        v1, *_ = coupled_refinement_loss(2, obj, attr, one)
        v2, *_ = coupled_refinement_loss(2, obj, attr, two)
        assert v2 == pytest.approx(v1)  # same per-assignment value, n doubles

    def test_shared_cells_accumulate(self):
        # two classes share one attribute cell, two pairs of class 0 share
        # one object cell; each cell must receive both gradients
        # columns: color red, color brown, size small, size large
        obj = np.array([[0.5, 0.25, 0.25]])
        attr = np.array([[0.25, 0.75, 0.5, 0.5]])
        assignments = [(0, 0, 0), (0, 1, 0), (0, 0, 2)]
        _, g_obj, g_attr = coupled_refinement_loss(2, obj, attr, assignments)
        assert g_attr[0, 0] == pytest.approx(-2.0 / (3 * 0.25))
        assert g_attr[0, 2] == pytest.approx(-1.0 / (3 * 0.5))
        assert g_obj[0, 0] == pytest.approx(-2.0 / (3 * 0.5))
        assert g_obj[0, 1] == pytest.approx(-1.0 / (3 * 0.25))

    def test_matches_per_assignment_loop(self):
        # reference: the per-assignment loop, accumulating in list order
        rng = np.random.default_rng(41)
        obj = rng.uniform(0.01, 1.0, size=(4, 3))
        attr = rng.uniform(0.01, 1.0, size=(4, 5))
        assignments = [(int(rng.integers(4)), int(rng.integers(2)), int(rng.integers(5))) for _ in range(30)]
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
            value, g_obj, g_attr = coupled_refinement_loss(head, obj, attr, assignments)
            assert value == pytest.approx(ref_value / n, rel=1e-12)
            assert np.array_equal(g_obj, ref_obj)
            assert np.array_equal(g_attr, ref_attr)

    def test_empty_assignments(self):
        value, g_obj, g_attr = coupled_refinement_loss(
            2, np.ones((2, 2)), np.ones((2, 2)), [],
        )
        assert value == 0.0
        assert not np.any(g_obj)


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
        labels = labels_for({0, 1})
        cfg = RefinementConfig(num_heads=3)
        pseudos = build_pseudo_labels(scores, labels, boxes, cfg, COLS)
        assert len(pseudos) == 3
        s0 = initial_scores(scores.per_region)
        for c in (0, 1):
            assert pseudos[0].seeds[c][0] == int(np.argmax(s0[:, c]))
            assert pseudos[1].seeds[c][0] == int(np.argmax(scores.objects[0][:, c]))
            assert pseudos[2].seeds[c][0] == int(np.argmax(scores.objects[1][:, c]))

    def test_no_objects_gives_none_per_head(self):
        rng = np.random.default_rng(62)
        scores, boxes = make_inputs(rng)
        cfg = RefinementConfig()
        pseudos = build_pseudo_labels(scores, labels_for(set()), boxes, cfg, COLS)
        assert pseudos == [None, None, None]

    def test_attributes_disabled_leaves_attrs_empty(self):
        rng = np.random.default_rng(63)
        scores, boxes = make_inputs(rng)
        labels = labels_for({0}, {0: {("color", "red")}})
        cfg = RefinementConfig(attributes_enabled=False)
        pseudos = build_pseudo_labels(scores, labels, boxes, cfg, COLS)
        assert all(p.attrs == [] for p in pseudos)


class TestRefinementTerms:
    def test_values_and_grads_line_up(self):
        rng = np.random.default_rng(71)
        scores, boxes = make_inputs(rng)
        labels = labels_for({0}, {0: {("color", "red")}})
        cfg = RefinementConfig()
        pseudos = build_pseudo_labels(scores, labels, boxes, cfg, COLS)
        values, grad = refinement_terms(scores, pseudos)
        assert len(values) == 3
        assert all(v > 0 for v in values)
        grad_objects, _ = scores.split(grad)
        for j in range(3):
            assert np.any(grad_objects[j])
        # the gradient covers the head columns only: no evidence gradient
        assert grad.shape == scores.heads.shape

    def test_none_pseudo_contributes_zero(self):
        rng = np.random.default_rng(72)
        scores, _ = make_inputs(rng)
        values, grad = refinement_terms(scores, [None, None, None])
        assert values == [0.0, 0.0, 0.0]
        assert not np.any(scores.split(grad)[0][0])

    def test_finite_difference_with_frozen_pseudos(self):
        # supervision frozen, scores free: the analytic gradient of the
        # summed head values must match central differences
        rng = np.random.default_rng(73)
        scores, boxes = make_inputs(rng, m=4)
        labels = labels_for({0, 1}, {0: {("color", "red")}})
        cfg = RefinementConfig()
        pseudos = build_pseudo_labels(scores, labels, boxes, cfg, COLS)
        _, grad = refinement_terms(scores, pseudos)
        grad_objects, _ = scores.split(grad)

        def total(sc):
            vals, _ = refinement_terms(sc, pseudos)
            return sum(vals)

        h = 1e-7
        for j in range(3):
            for i in range(4):
                for c in range(3):
                    bumped = dataclasses.replace(scores, heads=scores.heads.copy())
                    bumped.objects[j][i, c] += h
                    up = total(bumped)
                    bumped.objects[j][i, c] -= 2 * h
                    down = total(bumped)
                    assert grad_objects[j][i, c] == pytest.approx(
                        (up - down) / (2 * h), abs=1e-4,
                    )
