import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from head_reference import packed_scores
from capdet.textgraph import LabelSet
from capdet.weakloss import (
    Supervision,
    compile_supervision,
    entanglement_loss,
    mid_loss,
    object_mil_loss,
    run_sums,
    total_loss,
)


def labels_for(objects, pairs=None):
    return LabelSet(objects=set(objects), attribute_pairs={k: set(v) for k, v in (pairs or {}).items()})


def columns_for(cats):
    """(category, value) -> column, the categories side by side as ModelParams lays them out."""
    flat = [(cat, val) for cat, vals in cats.items() for val in vals]
    return {pair: j for j, pair in enumerate(flat)}


def sup_for(objects, num_classes, pairs=None, cols=None, with_pairs=True):
    return compile_supervision([labels_for(objects, pairs)], num_classes, cols or {}, pairs=with_pairs)


def mil(scores, sup):
    """object_mil_loss of one scene's (m, C + 1) scores, run as a one-scene batch: its value, gradient and rows."""
    value, rows, gradient = object_mil_loss(scores[None], sup, np.ones((1, len(scores)), dtype=bool))
    assert value.shape == (1,)
    return value[0], gradient()[0], rows


def entangle(obj, attr, sup):
    """entanglement_loss of one scene's (m, C + 1) and (m, V) scores, run as a one-scene batch."""
    value, rows, gradient = entanglement_loss(obj[None], attr[None], sup, np.ones((1, len(obj)), dtype=bool))
    assert value.shape == (1,)
    grad_obj, grad_attr = gradient()
    return value[0], grad_obj[0], grad_attr[0], rows


def mid(image_level, sup):
    """mid_loss of one scene's (C,) image-level scores, run as a one-scene batch."""
    value, gradient = mid_loss(np.asarray(image_level)[None], sup)
    assert value.shape == (1,)
    return value[0], gradient()[0]


def pair_rows(sup, rows):
    """Each pair's chosen row, keyed by (class, attribute column)."""
    return dict(zip(zip(sup.pair_classes.tolist(), sup.pair_columns.tolist()), rows.tolist()))


def central_differences(f, x, h=1e-6):
    """Numeric gradient of the scalar f at x, one coordinate at a time."""
    out = np.zeros_like(x)
    for index in np.ndindex(x.shape):
        bumped = x.copy()
        bumped[index] += h
        up = f(bumped)
        bumped[index] -= 2 * h
        out[index] = (up - f(bumped)) / (2 * h)
    return out


@st.composite
def separated_scores(draw, shape):
    """Scores in (0, 1) on a 0.01 grid, no two alike, so a maximum never sits within 0.01 of a rival."""
    return draw(arrays(np.int64, shape, elements=st.integers(1, 99), unique=True)) / 100.0


def stacked(sups, picks=slice(None)):
    """The Supervision of the scenes picks of sups' stacked masks, as a training step slices them."""
    positive, pairs = np.concatenate([sup.positive for sup in sups]), np.concatenate([sup.pairs for sup in sups])
    return Supervision(positive[picks], pairs[picks])


def pair_class_entries(sup):
    """Each pair's entry in sup.classes, the seed of its own scene's class: where the pair's head-1 label sits."""
    cells = list(zip(sup.class_scenes.tolist(), sup.classes.tolist()))
    return [cells.index(cell) for cell in zip(sup.pair_scenes.tolist(), sup.pair_classes.tolist())]


@st.composite
def scene_labels(draw, num_classes=4):
    """One scene's labels over num_classes classes and PROPERTY_COLS; often no class at all."""
    mentioned = draw(st.sets(st.integers(0, num_classes - 1)))
    return labels_for(mentioned, {c: draw(st.sets(st.sampled_from(sorted(PROPERTY_COLS)), max_size=3)) for c in mentioned})


class TestCompileSupervision:
    def test_arrays_ordered_by_class_then_pair(self):
        cols = columns_for({"color": ("red", "brown"), "size": ("small", "large")})
        pairs = {2: {("size", "small"), ("color", "red")}, 0: {("color", "brown")}}
        sup = sup_for({2, 0, 1}, 3, pairs, cols)
        assert sup.classes.tolist() == [0, 1, 2]
        assert sup.pair_classes.tolist() == [0, 2, 2]
        assert sup.pair_columns.tolist() == [1, 0, 2]

    def test_without_pairs_keeps_the_classes(self):
        cols = columns_for({"color": ("red",)})
        sup = sup_for({1}, 2, {1: {("color", "red")}}, cols, with_pairs=False)
        assert sup.classes.tolist() == [1]
        assert sup.pair_classes.size == sup.pair_columns.size == 0

    def test_pairs_of_unmentioned_classes_are_ignored(self):
        cols = columns_for({"color": ("red",)})
        sup = sup_for({0}, 2, {1: {("color", "red")}}, cols)
        assert sup.pair_classes.size == sup.pair_columns.size == 0

    def test_one_scene(self):
        cols = columns_for({"color": ("red", "brown")})
        sup = sup_for({0, 2}, 3, {2: {("color", "brown")}}, cols)
        assert sup.positive.tolist() == [[True, False, True]]
        assert sup.divisor.tolist() == [2.0]
        assert sup.class_scenes.tolist() == [0, 0]
        assert sup.pair_scenes.tolist() == [0]
        silent = sup_for(set(), 3)
        assert silent.positive.shape == (1, 3) and silent.divisor.tolist() == [1.0]

    def test_stacked_masks_offset_scenes_and_pairs(self):
        cols = columns_for({"color": ("red", "brown")})
        first = sup_for({0, 1}, 2, {1: {("color", "red")}}, cols)
        scenes = [first, sup_for(set(), 2, cols=cols), sup_for({1}, 2, {1: {("color", "brown")}}, cols)]
        batch = stacked(scenes)
        assert batch.classes.tolist() == [0, 1, 1]
        assert batch.class_scenes.tolist() == [0, 0, 2]
        assert batch.pair_scenes.tolist() == [0, 2]
        assert pair_class_entries(batch) == [1, 2]
        assert batch.positive.tolist() == [[True, True], [False, False], [False, True]]
        assert batch.divisor.tolist() == [2.0, 1.0, 1.0]
        again = stacked(scenes, picks=[0, 1, 0, 1, 2])
        assert again.class_scenes.tolist() == [0, 0, 2, 2, 4]
        assert pair_class_entries(again) == [1, 3, 4]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(scene_labels(), min_size=1, max_size=5))
    @example([labels_for(set())])
    @example([labels_for(set()), labels_for(set()), labels_for(set())])
    def test_stacked_masks_equal_per_scene_entries_with_offsets(self, scenes):
        batch = stacked([compile_supervision([labels], 4, PROPERTY_COLS) for labels in scenes])
        # scene after scene; within a scene, classes ascend and a class's pairs by attribute column
        classes = [(n, c) for n, labels in enumerate(scenes) for c in sorted(labels.objects)]
        pairs = [
            (n, *key)
            for n, labels in enumerate(scenes)
            for key in sorted((c, PROPERTY_COLS[pair]) for c in labels.objects for pair in labels.attribute_pairs[c])
        ]
        assert list(zip(batch.class_scenes.tolist(), batch.classes.tolist())) == classes
        assert list(zip(batch.pair_scenes.tolist(), batch.pair_classes.tolist(), batch.pair_columns.tolist())) == pairs
        assert batch.positive.tolist() == [[c in labels.objects for c in range(4)] for labels in scenes]
        assert batch.divisor.tolist() == [max(1, len(labels.objects)) for labels in scenes]
        # one call over every scene compiles the masks stacked one scene at a time
        whole = compile_supervision(scenes, 4, PROPERTY_COLS)
        assert np.array_equal(whole.positive, batch.positive) and np.array_equal(whole.pairs, batch.pairs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(scene_labels(), max_size=5), st.booleans())
    def test_a_generator_compiles_as_its_list(self, scenes, pairs):
        listed = compile_supervision(scenes, 4, PROPERTY_COLS, pairs=pairs)
        streamed = compile_supervision((labels for labels in scenes), 4, PROPERTY_COLS, pairs=pairs, count=len(scenes))
        for name in ("positive", "pairs"):
            mine, theirs = getattr(streamed, name), getattr(listed, name)
            assert (mine.dtype, mine.shape, mine.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes())

    @pytest.mark.parametrize("stream", [list, iter], ids=["list", "iterator"])
    @pytest.mark.parametrize(
        "count, message",
        [(0, "labels of more scenes than the count of 0"), (1, "labels of more scenes than the count of 1"),
         (3, "labels of 2 scenes for a count of 3")],
    )
    def test_a_count_unlike_the_labels_is_an_error(self, stream, count, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            compile_supervision(stream([labels_for({0}), labels_for({1})]), 2, {}, count=count)

    def test_bad_pair_is_one_value_error_naming_class_and_pair(self):
        cols = columns_for({"color": ("red",)})
        for pair in (("texture", "rough"), ("color", "purple")):
            with pytest.raises(ValueError, match=f"class 1: no attribute column for '{pair[0]}' = '{pair[1]}'"):
                sup_for({1}, 2, {1: {pair}}, cols)

    def test_out_of_range_class_names_it(self):
        with pytest.raises(ValueError, match="class index 2 out of range for 2 classes"):
            sup_for({0, 2}, 2)

    def test_many_scenes_compile_in_linear_memory(self):
        # train compiles its whole dataset at once: nothing may grow as N squared,
        # such as an (N, |O|) mask of each scene's entries
        scenes = [labels_for({0}, {0: {("color", "red")}})] * 2000
        tracemalloc.start()
        try:
            sup = compile_supervision(scenes, 1, columns_for({"color": ("red",)}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # two (2000, 2000) bool masks would take 8 MB
        assert sup.classes.size == sup.pair_classes.size == 2000


class TestRunSums:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 140), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_each_run_has_the_bits_of_its_lone_sum(self, lengths, seed):
        # runs under 8 terms, pairwise ones from 8 on, and past 128 where numpy splits a row in halves
        x = np.random.default_rng(seed).normal(size=sum(lengths))
        runs = np.repeat(np.arange(len(lengths)), lengths)
        ends = np.cumsum(lengths)
        expected = [np.sum(x[end - n : end]) for n, end in zip(lengths, ends)]
        assert run_sums(x, runs, len(lengths)).tobytes() == np.array(expected).tobytes()


class TestObjectMilLoss:
    def test_two_region_example(self):
        # class column (0.25, 0.5): best region is 1, loss -log(0.5)
        scores = np.array([[0.25, 0.75], [0.5, 0.5]])
        sup = sup_for({0}, 1)
        value, grad, rows = mil(scores, sup)
        assert value == pytest.approx(0.6931471805599453, abs=1e-12)
        assert dict(zip(sup.classes.tolist(), rows.tolist())) == {0: 1}
        assert grad[1, 0] == pytest.approx(-2.0)  # -1 / 0.5
        assert grad[0, 0] == 0.0
        assert not np.any(grad[:, 1])

    def test_empty_objects_short_circuits(self):
        scores = np.array([[0.25, 0.75]])
        value, grad, rows = mil(scores, sup_for(set(), 1))
        assert value == 0.0
        assert not np.any(grad)
        assert rows.shape == (0,)

    def test_normalized_by_class_count(self):
        scores = np.array([[0.5, 0.25, 0.25], [0.1, 0.5, 0.4]])
        value, grad, _ = mil(scores, sup_for({0, 1}, 2))
        assert value == pytest.approx(-(math.log(0.5) + math.log(0.5)) / 2)
        assert grad[0, 0] == pytest.approx(-1.0)  # -1/(2 * 0.5)
        assert grad[1, 1] == pytest.approx(-1.0)

    def test_tie_goes_to_lowest_region(self):
        scores = np.array([[0.4, 0.6], [0.4, 0.6]])
        sup = sup_for({0}, 1)
        _, _, rows = mil(scores, sup)
        assert dict(zip(sup.classes.tolist(), rows.tolist())) == {0: 0}

    def test_background_column_never_selected(self):
        # class index equal to the background column is rejected
        with pytest.raises(ValueError):
            sup_for({1}, 1)

    def test_zero_score_is_clamped(self):
        scores = np.array([[0.0, 1.0]])
        value, grad, _ = mil(scores, sup_for({0}, 1))
        assert np.isfinite(value)
        assert np.isfinite(grad).all()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_finite_difference(self, data):
        m, num_classes = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        scores = data.draw(separated_scores((m, num_classes + 1)))
        sup = sup_for(data.draw(st.sets(st.integers(0, num_classes - 1))), num_classes)
        _, grad, _ = mil(scores, sup)
        numeric = central_differences(lambda s: mil(s, sup)[0], scores)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-6)


class TestEntanglementLoss:
    def example(self):
        # object column for "cat" and color column for "brown"; the
        # coupled choice (region 1, product 0.40) differs from the
        # object-only argmax (region 0)
        obj = np.array([[0.9, 0.1], [0.5, 0.5]])
        # columns: color brown, color red, size small, size large
        attr = np.array([[0.1, 0.9, 0.5, 0.5], [0.8, 0.2, 0.5, 0.5]])
        cols = columns_for({"color": ("brown", "red"), "size": ("small", "large")})
        labels = labels_for({0}, {0: {("color", "brown")}})
        return obj, attr, cols, labels

    def test_reference_example(self):
        obj, attr, cols, labels = self.example()
        sup = compile_supervision([labels], 1, cols)
        value, grad_obj, grad_attr, rows = entangle(obj, attr, sup)
        assert pair_rows(sup, rows) == {(0, cols["color", "brown"]): 1}
        assert value == pytest.approx(0.916290731874155, abs=1e-12)
        assert grad_obj[1, 0] == pytest.approx(-2.0)  # -1 / 0.5
        assert grad_attr[1, 0] == pytest.approx(-1.25)  # -1 / 0.8
        assert grad_obj[0, 0] == 0.0
        assert not np.any(grad_attr[:, 2:])  # the size columns

    def test_coupled_argmax_differs_from_object_argmax(self):
        obj, attr, cols, labels = self.example()
        sup = compile_supervision([labels], 1, cols)
        _, _, object_rows = mil(obj, sup)
        _, _, _, coupled_rows = entangle(obj, attr, sup)
        assert dict(zip(sup.classes.tolist(), object_rows.tolist())) == {0: 0}
        assert pair_rows(sup, coupled_rows) == {(0, cols["color", "brown"]): 1}

    def test_no_pairs_short_circuits(self):
        obj, attr, cols, _ = self.example()
        value, g_obj, g_attr, rows = entangle(obj, attr, sup_for({0}, 1, cols=cols))
        assert value == 0.0
        assert not np.any(g_obj)
        assert rows.shape == (0,)

    def test_object_normalization_default(self):
        obj, attr, cols, _ = self.example()
        labels = labels_for({0}, {0: {("color", "brown"), ("size", "small")}})
        value_obj, *_ = entangle(obj, attr, compile_supervision([labels], 1, cols))
        # one object, two pairs (best products 0.40 and 0.45): the pair
        # losses are summed and divided by |O| = 1, not averaged over pairs
        assert value_obj == pytest.approx(-(math.log(0.40) + math.log(0.45)))

    def test_dominance_over_decoupled_selection(self):
        # the coupled choice maximizes the product, so its loss never
        # exceeds the loss at the object-only argmax
        rng = np.random.default_rng(37)
        strict = 0
        trials = 300
        for _ in range(trials):
            m = int(rng.integers(2, 8))
            obj = rng.uniform(0.01, 1.0, size=(m, 3))
            obj /= obj.sum(axis=1, keepdims=True)
            color = rng.uniform(0.01, 1.0, size=(m, 2))
            color /= color.sum(axis=1, keepdims=True)
            labels = labels_for({0}, {0: {("color", "red")}})
            cols = columns_for({"color": ("red", "brown")})
            value, *_ = entangle(obj, color, compile_supervision([labels], 2, cols))
            i_obj = int(np.argmax(obj[:, 0]))
            decoupled = -(math.log(obj[i_obj, 0]) + math.log(color[i_obj, 0]))
            assert value <= decoupled + 1e-12
            if value < decoupled - 1e-12:
                strict += 1
        assert strict > 0

    def test_unknown_category_rejected(self):
        _, _, cols, _ = self.example()
        with pytest.raises(ValueError, match="'texture' = 'rough'"):
            sup_for({0}, 1, {0: {("texture", "rough")}}, cols)

    def test_unknown_value_rejected(self):
        _, _, cols, _ = self.example()
        with pytest.raises(ValueError, match="'color' = 'purple'"):
            sup_for({0}, 1, {0: {("color", "purple")}}, cols)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_finite_difference(self, data):
        m, num_classes = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        obj = data.draw(separated_scores((m, num_classes + 1)))
        attr = data.draw(separated_scores((m, len(PROPERTY_COLS))))
        mentioned = data.draw(st.sets(st.integers(0, num_classes - 1)))
        pairs = {c: data.draw(st.sets(st.sampled_from(sorted(PROPERTY_COLS)), max_size=3)) for c in mentioned}
        sup = sup_for(mentioned, num_classes, pairs, PROPERTY_COLS)
        # keep every pair's best product clear of its runner-up (the grid makes it exact)
        products = np.rint(obj[:, sup.pair_classes] * attr[:, sup.pair_columns] * 1e4)
        top = np.sort(products, axis=0)
        assume(m == 1 or np.all(top[-1] > top[-2]))
        _, grad_obj, grad_attr, _ = entangle(obj, attr, sup)
        numeric_obj = central_differences(lambda o: entangle(o, attr, sup)[0], obj)
        numeric_attr = central_differences(lambda a: entangle(obj, a, sup)[0], attr)
        np.testing.assert_allclose(grad_obj, numeric_obj, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(grad_attr, numeric_attr, rtol=1e-6, atol=1e-6)


# loop references: the per-class and per-pair loops the vectorised losses replace
def mil_reference(scores, objects):
    grad = np.zeros_like(scores)
    chosen = {}
    mentioned = sorted(objects)
    total = 0.0
    for c in mentioned:
        col = np.clip(scores[:, c], 1e-12, 1.0 - 1e-12)
        i = int(np.argmax(col))
        chosen[c] = i
        total -= math.log(col[i])
        grad[i, c] -= 1.0 / col[i]
    if mentioned:
        total /= len(mentioned)
        grad /= len(mentioned)
    return total, grad, chosen


def entanglement_reference(obj, attr, labels, cols):
    grad_obj = np.zeros_like(obj)
    grad_attr = np.zeros_like(attr)
    chosen = {}
    mentioned = sorted(labels.objects)
    total = 0.0
    for c in mentioned:
        for cat, val in labels.pairs_for(c):
            j = cols[cat, val]
            p_obj = np.clip(obj[:, c], 1e-12, 1.0 - 1e-12)
            p_attr = np.clip(attr[:, j], 1e-12, 1.0 - 1e-12)
            i = int(np.argmax(p_obj * p_attr))
            chosen[(c, cat, val)] = i
            total -= math.log(p_obj[i]) + math.log(p_attr[i])
            grad_obj[i, c] -= 1.0 / p_obj[i]
            grad_attr[i, j] -= 1.0 / p_attr[i]
    if chosen:
        total /= len(mentioned)
        grad_obj /= len(mentioned)
        grad_attr /= len(mentioned)
    return total, grad_obj, grad_attr, chosen


PROPERTY_COLS = columns_for({"color": ("red", "green", "blue"), "size": ("small", "large")})


@st.composite
def loss_inputs(draw):
    """Scores in [0, 0.99] (zeros exercise the clamp), mentioned classes and their pairs.

    With shared set, the first two mentioned classes both carry (color, red)
    and region r holds a 1.0 in both object columns and the red column, so
    both pairs' maxima land on the attribute cell (r, red).
    """
    m = draw(st.integers(1, 6))
    num_classes = draw(st.integers(2, 4))
    scores = st.floats(0.0, 0.99, allow_subnormal=False)
    obj = draw(arrays(np.float64, (m, num_classes + 1), elements=scores))
    attr = draw(arrays(np.float64, (m, len(PROPERTY_COLS)), elements=scores))
    mentioned = draw(st.sets(st.integers(0, num_classes - 1), max_size=num_classes))
    pairs = {c: draw(st.sets(st.sampled_from(sorted(PROPERTY_COLS)), max_size=3)) for c in mentioned}
    if draw(st.booleans()) and len(mentioned) >= 2:
        r = draw(st.integers(0, m - 1))
        first, second = sorted(mentioned)[:2]
        for c in (first, second):
            pairs[c].add(("color", "red"))
            obj[r, c] = 1.0
        attr[r, PROPERTY_COLS["color", "red"]] = 1.0
    return obj, attr, labels_for(mentioned, pairs)


class TestLossesMatchLoops:
    @settings(max_examples=200, deadline=None)
    @given(loss_inputs())
    def test_object_mil_loss(self, inputs):
        obj, _, labels = inputs
        sup = compile_supervision([labels], obj.shape[1] - 1, PROPERTY_COLS)
        value, grad, rows = mil(obj, sup)
        ref_value, ref_grad, ref_chosen = mil_reference(obj, labels.objects)
        assert dict(zip(sup.classes.tolist(), rows.tolist())) == ref_chosen
        assert np.array_equal(grad, ref_grad)
        assert np.allclose(value, ref_value, rtol=1e-12, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(loss_inputs())
    def test_entanglement_loss(self, inputs):
        obj, attr, labels = inputs
        sup = compile_supervision([labels], obj.shape[1] - 1, PROPERTY_COLS)
        value, grad_obj, grad_attr, rows = entangle(obj, attr, sup)
        ref_value, ref_obj, ref_attr, ref_chosen = entanglement_reference(obj, attr, labels, PROPERTY_COLS)
        assert pair_rows(sup, rows) == {(c, PROPERTY_COLS[cat, val]): i for (c, cat, val), i in ref_chosen.items()}
        assert np.array_equal(grad_obj, ref_obj)
        assert np.array_equal(grad_attr, ref_attr)
        assert np.allclose(value, ref_value, rtol=1e-12, atol=0.0)

    def test_pairs_meeting_in_one_cell_add_up(self):
        # classes 0 and 1 both carry (color, red) and both maxima sit at
        # region 0, so the red cell there collects two contributions
        obj = np.array([[0.8, 0.8, 0.1], [0.1, 0.1, 0.8]])
        attr = np.array([[0.5, 0.25, 0.25, 0.5, 0.5], [0.1, 0.8, 0.1, 0.5, 0.5]])
        labels = labels_for({0, 1}, {0: {("color", "red")}, 1: {("color", "red")}})
        sup = compile_supervision([labels], 2, PROPERTY_COLS)
        _, _, grad_attr, rows = entangle(obj, attr, sup)
        assert pair_rows(sup, rows) == {(0, PROPERTY_COLS["color", "red"]): 0, (1, PROPERTY_COLS["color", "red"]): 0}
        assert grad_attr[0, 0] == pytest.approx(-2.0)  # two times -1 / 0.5, over |O| = 2


class TestMidLoss:
    def test_two_class_example(self):
        # evidence sums 0.7 and 0.2 pass through the sigmoid; class 0 is
        # mentioned, class 1 is not
        y = 1.0 / (1.0 + np.exp(-np.array([0.7, 0.2])))
        value, grad = mid(y, sup_for({0}, 2))
        assert value == pytest.approx(1.2013249182670498, abs=1e-12)
        assert grad[0] == pytest.approx(-1.0 / y[0])
        assert grad[1] == pytest.approx(1.0 / (1.0 - y[1]))

    def test_no_mentions_all_negative(self):
        # a single unmentioned class at image score sigmoid(0.25)
        y = np.array([0.5621765008857981])
        value, grad = mid(y, sup_for(set(), 1))
        assert value == pytest.approx(0.8259394198788435, abs=1e-12)
        assert grad[0] == pytest.approx(1.0 / (1.0 - y[0]))

    def test_all_mentioned(self):
        y = np.array([0.9, 0.8])
        value, grad = mid(y, sup_for({0, 1}, 2))
        assert value == pytest.approx(-(math.log(0.9) + math.log(0.8)))
        assert (grad < 0).all()

    def test_out_of_range_class(self):
        with pytest.raises(ValueError):
            sup_for({2}, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mid(np.array([0.6, 0.6]), sup_for({0}, 3))

    def test_saturated_scores_finite(self):
        value, grad = mid(np.array([1.0, 0.0]), sup_for({1}, 2))
        assert np.isfinite(value)
        assert np.isfinite(grad).all()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_finite_difference(self, data):
        num_classes = data.draw(st.integers(1, 5))
        y = data.draw(arrays(np.float64, num_classes, elements=st.floats(0.05, 0.95)))
        sup = sup_for(data.draw(st.sets(st.integers(0, num_classes - 1))), num_classes)
        _, grad = mid(y, sup)
        np.testing.assert_allclose(grad, central_differences(lambda v: mid(v, sup)[0], y), rtol=1e-6, atol=1e-6)


def exact_component_setup():
    """Scores engineered so each component is an exact round number.

    Object best score exp(-0.4) gives a MIL term of 0.4; the coupled pair
    adds exp(-1.6) so its term is 2.0; image level exp(-1) gives an
    evidence term of 1.0.
    """
    obj = np.array([[math.exp(-0.4), 1.0 - math.exp(-0.4)]])
    attr = np.array([[math.exp(-1.6), 1.0 - math.exp(-1.6)]])
    scores = packed_scores([obj], [attr], np.zeros((1, 1)), [math.exp(-1.0)])
    labels = labels_for({0}, {0: {("color", "red")}})
    cols = columns_for({"color": ("red", "green")})
    return scores, compile_supervision([labels], 1, cols), compile_supervision([labels], 1, cols, pairs=False)


# one scene's refinement values when there is no refinement head to score
NO_VALUES = np.zeros((1, 0))


def no_refinement(scores):
    return np.zeros_like(scores.heads)


def mixed(scores, sup, lambda1, lambda2, oicr_values, grad):
    """total_loss's report and what its gradient stage returns, grad the refinement stage's gradient."""
    report, gradient = total_loss(scores, sup, lambda1, lambda2, (oicr_values, lambda: grad))
    return (report, *gradient())


class TestTotalLoss:
    def test_mixing_arithmetic(self):
        scores, sup, _ = exact_component_setup()
        report, _, _ = mixed(scores, sup, 0.5, 0.01, NO_VALUES, no_refinement(scores))
        assert report.l_mid[0] == pytest.approx(1.0, abs=1e-12)
        assert report.l_obj[0] == pytest.approx(0.4, abs=1e-12)
        assert report.l_entang[0] == pytest.approx(2.0, abs=1e-12)
        assert report.l_total.shape == (1,)
        assert report.l_total[0] == pytest.approx(1.22, abs=1e-12)

    def test_refinement_values_added_unweighted(self):
        scores, sup, _ = exact_component_setup()
        report, _, _ = mixed(scores, sup, 0.5, 0.01, np.array([[0.1, 0.2, 0.3]]), no_refinement(scores))
        assert report.l_oicr.tolist() == [[0.1, 0.2, 0.3]]
        assert report.l_total[0] == pytest.approx(1.22 + 0.6, abs=1e-12)

    def test_lambda2_zero_skips_coupled_term(self):
        # the baseline's supervision is compiled without pairs
        scores, _, baseline = exact_component_setup()
        report, grad, _ = mixed(scores, baseline, 0.5, 0.0, NO_VALUES, no_refinement(scores))
        assert report.l_entang.tolist() == [0.0]
        assert report.argmax_pairs.shape == (0,)
        for head in scores.split(grad)[1][0]:
            assert not np.any(head)
        assert report.l_total[0] == pytest.approx(1.0 + 0.5 * 0.4, abs=1e-12)

    def test_gradients_scaled_by_weights(self):
        scores, _, baseline = exact_component_setup()
        _, heavy, heavy_image = mixed(scores, baseline, 1.0, 0.0, NO_VALUES, no_refinement(scores))
        _, light, light_image = mixed(scores, baseline, 0.5, 0.0, NO_VALUES, no_refinement(scores))
        # evidence gradient identical, object gradient scales with lambda1
        assert np.allclose(heavy_image, light_image)
        assert np.allclose(scores.split(heavy)[0][0, 0], 2.0 * scores.split(light)[0][0, 0])

    def test_oicr_grads_added(self):
        scores, sup, _ = exact_component_setup()
        _, base, _ = mixed(scores, sup, 0.5, 0.01, NO_VALUES, no_refinement(scores))
        extra = np.zeros_like(scores.heads)
        scores.split(extra)[0][0, 0][0, 0] = 5.0
        _, with_extra, _ = mixed(scores, sup, 0.5, 0.01, NO_VALUES, extra)
        assert with_extra is extra
        assert with_extra[0, 0, 0] == pytest.approx(base[0, 0, 0] + 5.0)
