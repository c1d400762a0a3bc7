import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box_reference import broadcast_iou, greedy_nms, pair_iou
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


# integer corners on a 4x4 grid: many repeated boxes and IoUs of exactly 1/2, 1/3 and 1/7
GRID_BOXES = [(x, y, x + w, y + h) for x in range(3) for y in range(3) for w in (1.0, 2.0) for h in (1.0, 2.0)]


@st.composite
def padded_stacks(draw, max_scenes=4):
    """Scenes of 1-6 grid boxes and 1-3 classes of tied scores, padded with the unit box to a common m."""
    num_classes = draw(st.integers(1, 3))
    scenes = []
    for _ in range(draw(st.integers(1, max_scenes))):
        boxes = draw(st.lists(st.sampled_from(GRID_BOXES), min_size=1, max_size=6))
        scores = draw(
            st.lists(
                st.lists(st.sampled_from([0.1, 0.5, 0.9]), min_size=num_classes, max_size=num_classes),
                min_size=len(boxes),
                max_size=len(boxes),
            )
        )
        scenes.append((boxes, np.array(scores, dtype=float)))
    width = max(len(boxes) for boxes, _ in scenes)
    stacked_boxes = np.tile([0.0, 0.0, 1.0, 1.0], (len(scenes), width, 1))
    # padded rows score highest, so nms has to skip them rather than rank them last
    stacked_scores = np.ones((len(scenes), width, num_classes))
    valid = np.zeros((len(scenes), width), dtype=bool)
    for n, (boxes, scores) in enumerate(scenes):
        stacked_boxes[n, : len(boxes)] = boxes
        stacked_scores[n, : len(boxes)] = scores
        valid[n, : len(boxes)] = True
    return scenes, stacked_boxes, stacked_scores, valid


class TestLeadingAxes:
    @settings(max_examples=200, deadline=None)
    @given(padded_stacks(), st.sampled_from([0.5, 1.0 / 3.0, 1.0 / 7.0, 1.0]))
    def test_nms_per_scene_matches_greedy_loop_and_one_scene_call(self, stack, threshold):
        scenes, boxes, scores, valid = stack
        kept = nms(boxes, scores, threshold, valid)
        assert kept.shape == (len(kept), 3)
        # scene by scene, and never a padded row
        assert np.array_equal(kept[:, 0], np.sort(kept[:, 0], kind="stable"))
        assert valid[kept[:, 0], kept[:, 2]].all()
        for n, (scene_boxes, scene_scores) in enumerate(scenes):
            mine = kept[kept[:, 0] == n, 1:].tolist()
            expected = [
                [c, i]
                for c in range(scene_scores.shape[1])
                for i in greedy_nms(scene_boxes, scene_scores[:, c], threshold)
            ]
            assert mine == expected
            assert mine == nms(as_array(scene_boxes), scene_scores, threshold).tolist()

    @settings(max_examples=200, deadline=None)
    @given(padded_stacks(), padded_stacks())
    def test_iou_matrix_slices_match_one_scene_calls(self, stack_a, stack_b):
        _, a, _, _ = stack_a
        _, b, _, _ = stack_b
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        mat = iou_matrix(a, b)
        assert mat.shape == (n, a.shape[1], b.shape[1])
        assert np.array_equal(iou_matrix(b, a), mat.transpose(0, 2, 1))
        for k in range(n):
            assert np.array_equal(mat[k], iou_matrix(a[k], b[k]))
            for i, box_a in enumerate(a[k].tolist()):
                for j, box_b in enumerate(b[k].tolist()):
                    assert mat[k, i, j] == pair_iou(box_a, box_b)
        # disjoint pairs give exactly 0.0, never a tiny or negative value
        overlapping = (
            (np.minimum(a[:, :, None, 2], b[:, None, :, 2]) > np.maximum(a[:, :, None, 0], b[:, None, :, 0]))
            & (np.minimum(a[:, :, None, 3], b[:, None, :, 3]) > np.maximum(a[:, :, None, 1], b[:, None, :, 1]))
        )
        assert (mat[~overlapping] == 0.0).all()
        assert (mat[overlapping] > 0.0).all()

    @settings(max_examples=200, deadline=None)
    @given(padded_stacks(), padded_stacks(), st.booleans())
    def test_iou_matrix_has_the_bits_of_the_out_of_place_formula(self, stack_a, stack_b, broadcast_b):
        _, a, _, _ = stack_a
        _, b, _, _ = stack_b
        a, b = a[: min(len(a), len(b))], b[: min(len(a), len(b))]
        if broadcast_b:
            b = b[0]  # one scene's boxes against every scene of a
        mat = iou_matrix(a, b)
        expected = broadcast_iou(a, b)
        assert mat.tobytes() == expected.tobytes() and mat.shape == expected.shape
        assert np.array_equal(iou_matrix(b, a), np.swapaxes(expected, -1, -2))
        disjoint = (np.minimum(a[..., :, None, 2], b[..., None, :, 2]) <= np.maximum(a[..., :, None, 0], b[..., None, :, 0])) | (
            np.minimum(a[..., :, None, 3], b[..., None, :, 3]) <= np.maximum(a[..., :, None, 1], b[..., None, :, 1])
        )
        assert not np.signbit(mat[disjoint]).any() and (mat[disjoint] == 0.0).all()

    def test_iou_matrix_keeps_three_pair_arrays_alive(self):
        # one 16-scene chunk of 34 proposals, as training's set-up computes it; the out-of-place formula
        # held five (16, 34, 34) arrays at its peak, the in-place one three plus numpy's iteration buffers
        boxes = np.random.default_rng(0).random((16, 34, 4))
        boxes[..., 2:] += boxes[..., :2] + 0.01
        pair_bytes = 16 * 34 * 34 * 8
        iou_matrix(boxes, boxes)
        tracemalloc.start()
        try:
            iou_matrix(boxes, boxes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * pair_bytes

    def test_leading_axes_broadcast(self):
        a = np.array([[[0.0, 0.0, 2.0, 2.0]], [[1.0, 1.0, 3.0, 3.0]]])
        b = np.array([[0.0, 0.0, 2.0, 2.0], [5.0, 5.0, 6.0, 6.0]])
        assert iou_matrix(a, b).tolist() == [[[1.0, 0.0]], [[1.0 / 7.0, 0.0]]]

    def test_padded_rows_never_suppress(self):
        # the padded row overlaps the real one and scores higher, yet the real one is kept
        boxes = np.array([[[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]]])
        scores = np.array([[[0.2], [0.9]]])
        assert nms(boxes, scores, 0.5, np.array([[True, False]])).tolist() == [[0, 0, 0]]
        assert nms(boxes, scores, 0.5).tolist() == [[0, 0, 1]]

    def test_empty_stack(self):
        assert nms(np.empty((3, 0, 4)), np.empty((3, 0, 2)), 0.5, np.empty((3, 0), dtype=bool)).shape == (0, 3)
        assert nms(np.empty((0, 5, 4)), np.empty((0, 5, 2)), 0.5).shape == (0, 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nms(np.zeros((2, 3, 4)), np.zeros((3, 3, 1)), 0.5)
