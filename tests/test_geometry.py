import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box_reference import greedy_nms, pair_iou
from capdet.geometry import check_boxes, iou_matrix, nms


def one_iou(a, b):
    return iou_matrix([a], [b])[0, 0]


# grid coordinates make repeated boxes and exact IoU values such as 1/3 and 1/2 common
_start = st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 4.0))
_size = st.one_of(st.integers(1, 3).map(float), st.floats(0.01, 3.0))
_box = st.tuples(_start, _start, _size, _size).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


@st.composite
def box_lists(draw, max_size=12):
    """Boxes drawn from a small pool, so the same box often appears more than once."""
    pool = draw(st.lists(_box, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=max_size))
    return [pool[i] for i in picks]


def as_array(boxes):
    return np.reshape(np.array(boxes, dtype=float), (-1, 4))


class TestCheckBoxes:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            check_boxes([[1.0, 0.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match="degenerate"):
            check_boxes([[0.0, 0.0, 1.0, 1.0], [0.0, 3.0, 2.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            check_boxes([[0.1, 0.1, np.inf, 0.5]])
        with pytest.raises(ValueError, match="non-finite"):
            check_boxes([[np.nan, 0.1, 0.3, 0.5]])

    @pytest.mark.parametrize("boxes", [[0.0, 0.0, 1.0, 1.0], [[0.0, 0.0, 1.0]], np.zeros((1, 2, 4))])
    def test_rejects_wrong_shape(self, boxes):
        with pytest.raises(ValueError, match=r"\(m, 4\)"):
            check_boxes(boxes)

    def test_returns_float_array(self):
        out = check_boxes([[0, 0, 1, 2]])
        assert out.dtype == float
        assert out.tolist() == [[0.0, 0.0, 1.0, 2.0]]


class TestIou:
    def test_identical_boxes(self):
        b = (0.1, 0.2, 0.5, 0.9)
        assert one_iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert one_iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0

    def test_touching_edges_are_disjoint(self):
        # closed rectangles sharing only an edge have zero intersection area
        assert one_iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0

    def test_unit_offset_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        assert one_iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)

    @settings(max_examples=200, deadline=None)
    @given(box_lists(), box_lists())
    def test_symmetry_and_range(self, boxes_a, boxes_b):
        a, b = as_array(boxes_a), as_array(boxes_b)
        mat = iou_matrix(a, b)
        assert np.array_equal(mat, iou_matrix(b, a).T)
        square = iou_matrix(a, a)
        assert np.array_equal(square, square.T)
        assert ((mat >= 0.0) & (mat <= 1.0)).all()

    def test_containment(self):
        assert one_iou((0, 0, 4, 4), (1, 1, 3, 3)) == pytest.approx(4.0 / 16.0)

    @settings(max_examples=200, deadline=None)
    @given(box_lists(), box_lists())
    def test_matrix_matches_scalar(self, boxes_a, boxes_b):
        mat = iou_matrix(as_array(boxes_a), as_array(boxes_b))
        assert mat.shape == (len(boxes_a), len(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert mat[i, j] == pair_iou(a, b)


def kept_regions(boxes, scores, threshold):
    """nms over one class: the kept regions, in the order nms returns them."""
    kept = nms(as_array(boxes), np.asarray(scores, dtype=float)[:, None], threshold)
    assert kept.shape == (len(kept), 2) and not kept[:, 0].any()
    return kept[:, 1].tolist()


class TestNms:
    def test_empty(self):
        assert kept_regions([], [], 0.5) == []
        assert nms(np.empty((0, 4)), np.empty((0, 3)), 0.5).shape == (0, 2)

    def test_single_box(self):
        assert kept_regions([(0, 0, 1, 1)], [0.9], 0.5) == [0]

    def test_identical_boxes_keep_highest(self):
        b = (0, 0, 1, 1)
        assert kept_regions([b, b, b], [0.2, 0.9, 0.5], 0.5) == [1]

    def test_tie_goes_to_lower_index(self):
        b = (0, 0, 1, 1)
        assert kept_regions([b, b], [0.7, 0.7], 0.5) == [0]

    def test_disjoint_all_kept_in_score_order(self):
        boxes = [(0, 0, 1, 1), (2, 2, 3, 3), (4, 4, 5, 5)]
        assert kept_regions(boxes, [0.1, 0.9, 0.5], 0.3) == [1, 2, 0]

    def test_suppression_at_threshold_boundary(self):
        # IoU of these two is exactly 1/3; threshold equal to it suppresses
        a = (0, 0, 2, 1)
        b = (1, 0, 3, 1)
        assert one_iou(a, b) == pytest.approx(1.0 / 3.0)
        assert kept_regions([a, b], [0.9, 0.8], 1.0 / 3.0) == [0]
        assert kept_regions([a, b], [0.9, 0.8], 0.34) == [0, 1]

    def test_chain_suppression_is_greedy(self):
        # b overlaps a, c overlaps b but not a: greedy keeps a and c
        a = (0.0, 0.0, 1.0, 1.0)
        b = (0.5, 0.0, 1.5, 1.0)
        c = (1.2, 0.0, 2.2, 1.0)
        assert one_iou(a, c) == 0.0
        kept = kept_regions([a, b, c], [0.9, 0.8, 0.7], 0.25)
        assert kept == [0, 2]

    def test_kept_pairs_below_threshold(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            boxes = []
            for _ in range(20):
                x0, y0 = rng.uniform(0, 1, 2)
                boxes.append((x0, y0, x0 + rng.uniform(0.05, 0.6), y0 + rng.uniform(0.05, 0.6)))
            scores = rng.uniform(0, 1, 20).tolist()
            kept = kept_regions(boxes, scores, 0.4)
            for i_pos, i in enumerate(kept):
                for j in kept[i_pos + 1 :]:
                    assert pair_iou(boxes[i], boxes[j]) < 0.4

    def test_score_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        boxes = []
        for _ in range(15):
            x0, y0 = rng.uniform(0, 1, 2)
            boxes.append((x0, y0, x0 + rng.uniform(0.1, 0.5), y0 + rng.uniform(0.1, 0.5)))
        scores = rng.uniform(0.1, 0.9, 15)
        assert kept_regions(boxes, scores.tolist(), 0.4) == kept_regions(boxes, (scores**3).tolist(), 0.4)

    @settings(max_examples=300, deadline=None)
    @given(
        box_lists(),
        st.data(),
        st.one_of(st.sampled_from([1.0, 0.5, 1.0 / 3.0, 0.25, 1.0 / 7.0]), st.floats(0.01, 1.0)),
    )
    def test_matches_greedy_loop_reference(self, boxes, data, threshold):
        # few distinct scores, so ties are common; grid boxes put pairs exactly at 1/2, 1/3, 1/7
        scores = data.draw(st.lists(st.sampled_from([0.1, 0.5, 0.9]), min_size=len(boxes), max_size=len(boxes)))
        assert kept_regions(boxes, scores, threshold) == greedy_nms(boxes, scores, threshold)

    @settings(max_examples=300, deadline=None)
    @given(box_lists(), st.integers(1, 4), st.data(), st.sampled_from([0.5, 1.0 / 3.0, 1.0 / 7.0, 1.0]))
    def test_every_class_matches_greedy_loop_reference(self, boxes, num_classes, data, threshold):
        # tied scores within and across columns; rows come class by class
        scores = data.draw(
            st.lists(
                st.lists(st.sampled_from([0.1, 0.5, 0.9]), min_size=num_classes, max_size=num_classes),
                min_size=len(boxes),
                max_size=len(boxes),
            )
        )
        scores = np.reshape(np.array(scores, dtype=float), (len(boxes), num_classes))
        expected = [[c, i] for c in range(num_classes) for i in greedy_nms(boxes, scores[:, c], threshold)]
        assert nms(as_array(boxes), scores, threshold).tolist() == expected

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nms(as_array([(0, 0, 1, 1)]), np.array([[0.5], [0.4]]), 0.5)
        with pytest.raises(ValueError):
            nms(as_array([(0, 0, 1, 1)]), np.array([0.5]), 0.5)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            nms(as_array([(0, 0, 1, 1)]), np.array([[0.5]]), 0.0)
