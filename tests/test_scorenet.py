import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from head_reference import lone_batch, loop_forward, loop_gradients
from hypothesis import given, settings
from hypothesis import strategies as st

from capdet import scorenet
from capdet.scorenet import (
    CHECKPOINT_MAGIC,
    ModelParams,
    RegionSet,
    clamp_prob,
    forward,
    init_params,
    iter_param_arrays,
    load_checkpoint,
    param_gradients,
    save_checkpoint,
    sigmoid,
    softmax_cols,
    softmax_rows,
)
from capdet.synthbench import SyntheticScene
from capdet.textgraph import default_registry
from capdet.trainer import SceneBatch, TrainConfig, infer

CATS = {"color": ("red", "green"), "size": ("small", "large")}


def named(params):
    """name -> view into params.flat, for every block's weight and bias."""
    return dict(iter_param_arrays(params))


def named_flat(params, flat):
    """name -> block of flat, a vector laid out like params.flat."""
    out = zero_params(params.class_names, params.category_values, params.feature_dim, params.num_heads)
    out.flat[:] = flat
    return named(out)


def make_regions(rng, m, d):
    """m random proposals with d-dimensional features, as a one-scene batch."""
    boxes = []
    for _ in range(m):
        x0, y0 = rng.uniform(0, 0.5, 2)
        boxes.append([x0, y0, x0 + rng.uniform(0.1, 0.4), y0 + rng.uniform(0.1, 0.4)])
    return lone_batch(np.array(boxes), rng.normal(size=(m, d)))


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=50, size=(5, 7))
        s = softmax_rows(z, out=np.empty(z.shape))
        assert np.allclose(s.sum(axis=1), 1.0)
        assert (s > 0).all()

    def test_softmax_cols_sum_to_one(self):
        rng = np.random.default_rng(1)
        s = softmax_cols(rng.normal(scale=50, size=(5, 7)))
        assert np.allclose(s.sum(axis=0), 1.0)

    def test_softmax_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        shifted = softmax_rows(z + 1000.0, out=np.empty(z.shape))
        assert np.allclose(softmax_rows(z, out=np.empty(z.shape)), shifted)

    def test_softmax_rows_leaves_its_input_alone(self):
        z = np.array([[1.0, 2.0, 3.0]])
        softmax_rows(z, out=np.empty(z.shape))
        assert z.tolist() == [[1.0, 2.0, 3.0]]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pairwise_sum_has_the_bits_of_a_row_sum(self, data):
        # numpy adds a short row in order, 8 interleaved partial sums from 8
        # entries on, and halves past 128
        width = data.draw(st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 300]))
        lead = data.draw(st.sampled_from([(), (3,), (2, 5)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows = rng.normal(size=lead + (width,)) * 10.0 ** rng.integers(-8, 9, size=lead + (width,))
        column_first = np.moveaxis(rows, -1, 0).copy()
        assert np.array_equal(scorenet.pairwise_sum(column_first), rows.sum(axis=-1))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_segments_have_the_bits_of_row_softmaxes(self, data):
        widths = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # a strided view, as head_scores passes the attribute block of its logits
        z = rng.normal(scale=5.0, size=(2, 4, sum(widths) + 3))[..., 1 : sum(widths) + 1]
        grad = rng.normal(size=z.shape)
        ends = np.cumsum(widths)
        segments = tuple(slice(end - w, end) for w, end in zip(widths, ends))

        def row_softmax(v):
            e = np.exp(v - v.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)

        s = softmax_rows(z, segments, out=np.empty(z.shape))
        expected = np.concatenate([row_softmax(z[..., seg]) for seg in segments], axis=-1)
        assert np.array_equal(s, expected)
        back = scorenet._softmax_rows_backward(s, grad, segments)
        for seg in segments:
            g, p = grad[..., seg], s[..., seg]
            assert np.array_equal(back[..., seg], p * (g - (g * p).sum(axis=-1, keepdims=True)))

    def test_sigmoid_extremes_finite(self):
        v = sigmoid(np.array([-1e9, 0.0, 1e9]))
        assert np.isfinite(v).all()
        assert v[1] == 0.5

    def test_clamp_prob(self):
        assert clamp_prob(0.0) > 0.0
        assert clamp_prob(1.0) < 1.0
        assert clamp_prob(0.3) == 0.3


class TestRegionSet:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RegionSet(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            RegionSet(np.array([[0, 0, 1, 1]]), np.zeros((2, 4)))

    def test_rejects_nan_features(self):
        feats = np.zeros((1, 4))
        feats[0, 0] = np.nan
        with pytest.raises(ValueError):
            RegionSet(np.array([[0, 0, 1, 1]]), feats)

    def test_rejects_degenerate_box(self):
        with pytest.raises(ValueError):
            RegionSet(np.array([[0.5, 0, 0.5, 1]]), np.zeros((1, 4)))


class TestInit:
    def test_deterministic(self):
        a = init_params(8, ("cat", "dog"), CATS, 3, seed=42)
        b = init_params(8, ("cat", "dog"), CATS, 3, seed=42)
        assert np.array_equal(a.flat, b.flat)

    def test_seed_changes_weights(self):
        a = init_params(8, ("cat",), CATS, 1, seed=0)
        b = init_params(8, ("cat",), CATS, 1, seed=1)
        assert not np.array_equal(a.flat, b.flat)

    def test_shapes(self):
        p = init_params(8, ("cat", "dog", "cup"), CATS, 2, seed=0)
        assert p.num_classes == 3
        assert p.num_heads == 2
        assert p.feature_dim == 8
        arrays = named(p)
        assert arrays["object[0].weight"].shape == (8, 4)  # classes + background
        assert arrays["attribute[0][color].weight"].shape == (8, 2)
        assert arrays["mid_det.weight"].shape == (8, 3)
        assert (arrays["object[0].bias"] == 0).all()

    def test_attribute_columns_follow_category_order(self):
        p = init_params(8, ("cat",), CATS, 1, seed=0)
        assert p.category_slices == {"color": slice(0, 2), "size": slice(2, 4)}
        assert p.value_columns == {
            ("color", "red"): 0,
            ("color", "green"): 1,
            ("size", "small"): 2,
            ("size", "large"): 3,
        }

    def test_bad_args(self):
        with pytest.raises(ValueError):
            init_params(0, ("cat",), CATS, 1, seed=0)
        with pytest.raises(ValueError):
            init_params(8, (), CATS, 1, seed=0)
        with pytest.raises(ValueError):
            init_params(8, ("cat",), CATS, 0, seed=0)


def zero_params(class_names, cats, d, num_heads=1):
    return ModelParams(d, class_names, cats, num_heads)  # a fresh buffer is all zeros


class TestForward:
    def test_zero_params_two_regions(self):
        # all-zero parameters, one class, two regions: gate is 0.5
        # everywhere, the region distribution is uniform, so each
        # per-region evidence entry is 0.25 and the image score is
        # sigmoid(0.5)
        p = zero_params(("cat",), CATS, d=4)
        regions = lone_batch(
            np.array([[0, 0, 1, 1], [1, 1, 2, 2]], dtype=float),
            np.ones((2, 4)),
        )
        scores = forward(p, regions)
        assert np.allclose(scores.per_region, 0.25)
        assert scores.image_level[0, 0] == pytest.approx(0.6224593312018546, abs=1e-12)
        assert np.allclose(scores.objects[0], 0.5)  # 2 columns: class + bg

    def test_zero_params_single_region(self):
        # softmax over a single region is 1, so evidence is the gate alone
        p = zero_params(("cat",), CATS, d=4)
        regions = lone_batch(np.array([[0, 0, 1, 1]], dtype=float), np.zeros((1, 4)))
        scores = forward(p, regions)
        assert scores.per_region[0, 0, 0] == pytest.approx(0.5)
        assert scores.image_level[0, 0] == pytest.approx(sigmoid(np.array([0.5]))[0])

    def test_image_level_open_interval(self):
        rng = np.random.default_rng(9)
        p = init_params(6, ("a", "b", "c"), CATS, 1, seed=3)
        for _ in range(20):
            regions = make_regions(rng, rng.integers(1, 9), 6)
            scores = forward(p, regions)
            assert (scores.image_level > 0.5).all()
            assert (scores.image_level < 1.0).all()

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(10)
        p = init_params(6, ("a", "b"), CATS, 2, seed=4)
        regions = make_regions(rng, 5, 6)
        scores = forward(p, regions)
        for head in scores.objects[0]:
            assert head.shape == (5, 3)
            assert np.allclose(head.sum(axis=1), 1.0, atol=1e-6)
        for head in scores.attributes[0]:
            assert head.shape == (5, 4)
            for cols in p.category_slices.values():
                assert np.allclose(head[:, cols].sum(axis=1), 1.0, atol=1e-6)

    def test_feature_dim_mismatch(self):
        p = init_params(6, ("a",), CATS, 1, seed=0)
        with pytest.raises(ValueError):
            forward(p, lone_batch(np.array([[0, 0, 1, 1]], dtype=float), np.zeros((1, 5))))


def fd_errors(params, regions, grad, grad_image, coords, h=1e-6):
    """Relative errors of param_gradients against central differences.

    The differentiated value is sum(grad * heads) + sum(grad_image * image_level).
    """

    def value():
        scores = forward(params, regions)
        return float((grad * scores.heads).sum() + (grad_image * scores.image_level).sum())

    analytic = param_gradients(params, regions, forward(params, regions), grad, grad_image)
    flat = params.flat
    errors = []
    for c in coords:
        original = flat[c]
        flat[c] = original + h
        up = value()
        flat[c] = original - h
        down = value()
        flat[c] = original
        numeric = (up - down) / (2 * h)
        errors.append(abs(analytic[c] - numeric) / max(1.0, abs(analytic[c]), abs(numeric)))
    return np.array(errors)


@st.composite
def random_models(draw):
    """A perturbed random model and region set: K 1-3, C 1-4, 0-3 categories of 1-9 values, m 1-8, d 1-8."""
    d, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    num_classes, num_heads = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 9), max_size=3))
    cats = {f"cat{a}": tuple(f"v{a}{j}" for j in range(w)) for a, w in enumerate(widths)}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(d, [f"c{i}" for i in range(num_classes)], cats, num_heads, seed=int(rng.integers(2**31)))
    params.flat += rng.normal(0.0, 1.0, size=params.flat.size)
    return params, make_regions(rng, m, d), rng


class TestParamGradients:
    def test_against_finite_differences(self):
        rng = np.random.default_rng(21)
        p = init_params(5, ("a", "b"), CATS, 2, seed=8)
        regions = make_regions(rng, 4, 5)
        scores = forward(p, regions)
        grad, grad_image = rng.normal(size=scores.heads.shape), rng.normal(size=scores.image_level.shape)
        coords = rng.choice(p.flat.size, size=60, replace=False)
        assert fd_errors(p, regions, grad, grad_image, coords).max() < 1e-5

    def test_zero_upstream_gives_zero_param_grad(self):
        rng = np.random.default_rng(22)
        p = init_params(5, ("a", "b"), CATS, 3, seed=9)
        regions = make_regions(rng, 4, 5)
        scores = forward(p, regions)
        grad = np.zeros_like(scores.heads)
        scores.split(grad)[0][0, 1][0, 0] = 1.0  # only object head 1 receives signal
        out = named_flat(p, param_gradients(p, regions, scores, grad, np.zeros((1, 2))))
        assert not np.any(out["object[0].weight"])
        assert np.any(out["object[1].weight"])
        assert not np.any(out["object[2].weight"])
        assert not np.any(out["mid_det.weight"])
        for name, array in out.items():
            if name.startswith("attribute["):
                assert not np.any(array)

    def test_mid_image_gradient_only(self):
        rng = np.random.default_rng(23)
        p = init_params(5, ("a", "b"), CATS, 1, seed=10)
        regions = make_regions(rng, 3, 5)
        scores = forward(p, regions)
        coords = rng.choice(p.flat.size, size=40, replace=False)
        errors = fd_errors(p, regions, np.zeros_like(scores.heads), rng.normal(size=2), coords)
        assert errors.max() < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(random_models())
    def test_property_matches_central_differences(self, model):
        params, regions, rng = model
        scores = forward(params, regions)
        grad, grad_image = rng.normal(size=scores.heads.shape), rng.normal(size=scores.image_level.shape)
        assert fd_errors(params, regions, grad, grad_image, range(params.flat.size)).max() < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(random_models())
    def test_property_matches_per_head_reference(self, model):
        params, regions, rng = model
        scores = forward(params, regions)
        grad, grad_image = rng.normal(size=scores.heads.shape), rng.normal(size=scores.image_level.shape)
        grad_objects, grad_attributes = scores.split(grad)
        expected = loop_gradients(params, regions.features[0], list(grad_objects[0]), list(grad_attributes[0]), grad_image[0])
        got = param_gradients(params, regions, scores, grad, grad_image)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_rejects_a_gradient_of_the_wrong_shape(self):
        rng = np.random.default_rng(24)
        p = init_params(5, ("a", "b"), CATS, 2, seed=11)
        regions = make_regions(rng, 3, 5)
        scores = forward(p, regions)
        with pytest.raises(ValueError):
            param_gradients(p, regions, scores, np.zeros((1, 3, scores.heads.shape[-1] + 1)), np.zeros((1, 2)))


class TestLogits:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_each_scene_has_its_lone_batch_bits(self, data):
        # BLAS rounds a row by the row count of its product, so a scene's rows
        # must not depend on how far the batch pads it
        d = data.draw(st.sampled_from([6, 16, 64]), label="d")
        num_classes, num_heads = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3))
        widths = data.draw(st.lists(st.integers(1, 6), max_size=4), label="category widths")
        sizes = data.draw(st.lists(st.integers(1, 39), min_size=2, max_size=16), label="proposal counts")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cats = {f"cat{a}": tuple(f"v{a}{j}" for j in range(w)) for a, w in enumerate(widths)}
        params = init_params(d, [f"c{i}" for i in range(num_classes)], cats, num_heads, seed=0)
        params.flat += rng.normal(size=params.flat.size)
        lone = [make_regions(rng, m, d) for m in sizes]
        scenes = [SyntheticScene(f"s{n}", [], RegionSet(b.boxes[0], b.features[0]), []) for n, b in enumerate(lone)]
        z = scorenet.logits(params, SceneBatch.pack(scenes))
        for n, (scene, m) in enumerate(zip(scenes, sizes)):
            assert np.array_equal(z[n, :m], scorenet.logits(params, SceneBatch.pack([scene]))[0, :m])


class TestPackedForward:
    @settings(max_examples=100, deadline=None)
    @given(random_models())
    def test_property_matches_per_head_reference(self, model):
        params, regions, _ = model
        scores = forward(params, regions)
        objects, attributes, gate, region_dist, per_region, image_level = loop_forward(params, regions.features[0])
        close = dict(rtol=0, atol=1e-12)
        m = regions.valid.shape[1]
        assert scores.objects.shape == (1, params.num_heads, m, params.num_classes + 1)
        assert scores.attributes.shape == (1, params.num_heads, m, len(params.value_columns))
        for k in range(params.num_heads):
            np.testing.assert_allclose(scores.objects[0, k], objects[k], **close)
            np.testing.assert_allclose(scores.attributes[0, k], attributes[k], **close)
        for got, expected in (
            (scores.gate, gate),
            (scores.region_dist, region_dist),
            (scores.per_region, per_region),
            (scores.image_level, image_level),
        ):
            np.testing.assert_allclose(got[0], expected, **close)

    def test_default_model_runs_one_softmax_pass_per_group(self, monkeypatch):
        # one pass over every object head, one over every attribute head's categories
        registry = default_registry()
        cats = {cat: tuple(registry.values[cat]) for cat in registry.categories}
        p = init_params(64, [f"c{i}" for i in range(8)], cats, 3, seed=0)
        assert p.packed.shape[1] == 100  # K(C + 1) + K * V + 2C
        calls = []
        real = scorenet.softmax_rows
        monkeypatch.setattr(
            scorenet, "softmax_rows", lambda z, *args, **kwargs: calls.append((z.shape, args)) or real(z, *args, **kwargs)
        )
        forward(p, make_regions(np.random.default_rng(25), 34, 64))
        assert calls == [((1, 3, 34, 9), ()), ((1, 3, 34, 19), (tuple(p.category_slices.values()),))]
        assert len(cats) == 4


class TestFlatten:
    """The single buffer: flat holds the packed map, and every head is a view into it."""

    def test_round_trip(self):
        p = init_params(7, ("a", "b", "c"), CATS, 2, seed=13)
        stored = p.flat[p.checkpoint_order]
        back = zero_params(p.class_names, p.category_values, p.feature_dim, p.num_heads)
        back.flat[back.checkpoint_order] = stored
        assert np.array_equal(back.flat, p.flat)
        # the named views tile the checkpoint in order, with nothing left over
        assert np.array_equal(np.concatenate([a.ravel() for _, a in iter_param_arrays(p)]), stored)

    def test_wrong_size_rejected(self, tmp_path):
        p = init_params(4, ("a",), CATS, 1, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        head = path.read_bytes()[: -p.flat.nbytes]
        for size in (3, p.flat.size + 1):
            path.write_bytes(head + np.zeros(size).tobytes())
            with pytest.raises(ValueError):
                load_checkpoint(path)

    def test_writes_through_flat_reach_the_views(self):
        p = init_params(4, ("a", "b"), CATS, 2, seed=0)
        arrays = named(p)
        p.flat[0] = 123.0
        assert arrays["object[0].weight"][0, 0] == 123.0
        p.flat[-1] = -7.0
        assert arrays["mid_cls.bias"][-1] == -7.0
        arrays["attribute[1][size].bias"][0] = 5.0
        assert 5.0 in p.flat

    def test_like_shares_the_buffer(self):
        p = init_params(4, ("a",), CATS, 1, seed=0)
        q = zero_params(p.class_names, p.category_values, p.feature_dim, p.num_heads)
        q.flat[:] = 1.0
        assert (named(q)["object[0].weight"] == 1.0).all()
        assert (named(p)["object[0].weight"] != 1.0).all()
        # the packed map is a view of flat, not a copy
        assert np.shares_memory(p.packed, p.flat) and p.packed.shape == (5, p.flat.size // 5)

    def test_packed_map_reads_every_entry_once(self):
        p = init_params(3, ("a", "b"), CATS, 2, seed=0)
        assert np.array_equal(np.sort(p.checkpoint_order), np.arange(p.flat.size))
        # packed columns follow the block order: head 1's object block, then attributes
        arrays = named(p)
        assert np.array_equal(p.packed[:-1, 3:6], arrays["object[1].weight"])
        attribute = p.attribute_cols.start
        assert np.array_equal(p.packed[-1, attribute + 4 : attribute + 6], arrays["attribute[1][color].bias"])

    def test_order_is_stable(self):
        # the traversal order is a file format contract: object heads,
        # then attribute heads per category order, then the two evidence maps
        p = init_params(4, ("a",), {"color": ("red",)}, 1, seed=0)
        names = [name for name, _ in iter_param_arrays(p)]
        assert names == [
            "object[0].weight",
            "object[0].bias",
            "attribute[0][color].weight",
            "attribute[0][color].bias",
            "mid_det.weight",
            "mid_det.bias",
            "mid_cls.weight",
            "mid_cls.bias",
        ]

    def test_golden_v1_layout(self, tmp_path):
        # the checkpoint bytes and layout of a fixed model, recorded before
        # the heads were packed: they pin the checkpoint order and the order
        # of the initial draws
        cats = {"color": ("red", "green"), "size": ("small", "medium", "large")}
        p = init_params(5, ("a", "b", "c"), cats, 2, seed=7)
        path = tmp_path / "golden.ckpt"
        save_checkpoint(p, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2596b3cab0b1fb43ee410f00079ec00d0505891ea2d899b9f6813f1462d94818"
        )
        # each named block is read from its run of checkpoint_order positions
        positions = zero_params(p.class_names, cats, p.feature_dim, p.num_heads)
        positions.flat[:] = np.arange(p.flat.size)
        layout, offset = [], 0
        for name, a in iter_param_arrays(positions):
            assert np.array_equal(p.checkpoint_order[offset : offset + a.size], a.ravel())
            layout.append((name, offset, a.shape))
            offset += a.size
        assert layout == [
            ("object[0].weight", 0, (5, 4)),
            ("object[0].bias", 20, (4,)),
            ("object[1].weight", 24, (5, 4)),
            ("object[1].bias", 44, (4,)),
            ("attribute[0][color].weight", 48, (5, 2)),
            ("attribute[0][color].bias", 58, (2,)),
            ("attribute[0][size].weight", 60, (5, 3)),
            ("attribute[0][size].bias", 75, (3,)),
            ("attribute[1][color].weight", 78, (5, 2)),
            ("attribute[1][color].bias", 88, (2,)),
            ("attribute[1][size].weight", 90, (5, 3)),
            ("attribute[1][size].bias", 105, (3,)),
            ("mid_det.weight", 108, (5, 3)),
            ("mid_det.bias", 123, (3,)),
            ("mid_cls.weight", 126, (5, 3)),
            ("mid_cls.bias", 141, (3,)),
        ]
        assert p.flat.size == 144


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        p = init_params(6, ("cat", "dog"), CATS, 3, seed=17)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(p, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.class_names == p.class_names
        assert loaded.category_values == p.category_values

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_are_not_written(self, value, tmp_path):
        p = init_params(6, ("cat",), CATS, 1, seed=0)
        p.flat[3] = value
        path = tmp_path / "bad.ckpt"
        with pytest.raises(ValueError, match="non-finite parameters"):
            save_checkpoint(p, path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"something else entirely\n")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        p = init_params(6, ("cat",), CATS, 1, seed=0)
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(p, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "hdr.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b"{not json\n" + b"\x00" * 64)
        with pytest.raises(ValueError, match="header"):
            load_checkpoint(path)

    def test_header_sizes_are_checked_before_allocating(self, tmp_path):
        # the layout would take 5.6 MB, and its index as much again; the 8-byte payload is refused first
        header = {"feature_dim": 100000, "class_names": ["a", "b"], "category_values": {}, "num_heads": 1}
        path = tmp_path / "huge.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + b"\x00" * 8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"payload has 8 bytes, layout needs 5600056\b"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _rewrite_header(path, edit):
    blob = path.read_bytes()[len(CHECKPOINT_MAGIC):]
    line, payload = blob.split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + payload)


class TestCheckpointHeader:
    @pytest.fixture
    def saved(self, tmp_path):
        p = init_params(6, ("cat", "dog"), CATS, 2, seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        return p, path

    def test_missing_dtype_reads_as_f8(self, saved):
        p, path = saved
        _rewrite_header(path, lambda h: h.pop("dtype"))
        assert np.array_equal(load_checkpoint(path).flat, p.flat)

    @pytest.mark.parametrize(
        "key, edit",
        [
            pytest.param("num_heads", lambda h: h.pop("num_heads"), id="no-num_heads"),
            pytest.param("feature_dim", lambda h: h.pop("feature_dim"), id="no-feature_dim"),
            pytest.param("class_names", lambda h: h.pop("class_names"), id="no-class_names"),
            pytest.param("category_values", lambda h: h.pop("category_values"), id="no-category_values"),
            pytest.param("feature_dim", lambda h: h.update(feature_dim="6"), id="feature_dim-str"),
            pytest.param("num_heads", lambda h: h.update(num_heads=True), id="num_heads-bool"),
            pytest.param("class_names", lambda h: h.update(class_names=["cat", 2]), id="class_names-int-item"),
            pytest.param(
                "category_values", lambda h: h.update(category_values={"color": "red"}), id="category_values-str"
            ),
            pytest.param(
                "category_values", lambda h: h.update(category_values={"color": []}), id="category_values-empty"
            ),
            pytest.param(
                "category_values",
                lambda h: h.update(category_values={"color": ["red", "red"]}),
                id="category_values-dup",
            ),
            pytest.param("dtype", lambda h: h.update(dtype="bogus"), id="dtype-bogus"),
            pytest.param("dtype", lambda h: h.update(dtype="<i8"), id="dtype-i8"),
            pytest.param("feature_dim", lambda h: h.update(feature_dim=0), id="feature_dim-zero"),
        ],
    )
    def test_bad_header_names_path_and_key(self, saved, key, edit):
        _, path = saved
        _rewrite_header(path, edit)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
        assert key in str(info.value)

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "list.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b"[1, 2]\n")
        with pytest.raises(ValueError, match="header"):
            load_checkpoint(path)


class TestNoAttributeCategories:
    """A model without attribute categories has (m, 0) attribute score arrays."""

    def test_checkpoint_forward_backward_and_infer(self, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "plain.ckpt"
        save_checkpoint(init_params(5, ("a", "b"), {}, 2, seed=3), path)
        p = load_checkpoint(path)
        assert p.category_values == {} and p.value_columns == {}
        regions = make_regions(rng, 4, 5)
        scores = forward(p, regions)
        assert [a.shape for a in scores.attributes[0]] == [(4, 0), (4, 0)]
        grad = np.zeros_like(scores.heads)
        grad_objects, _ = scores.split(grad)
        grad_objects[0, 1] = rng.normal(size=grad_objects[0, 1].shape)
        out = named_flat(p, param_gradients(p, regions, scores, grad, np.zeros((1, 2))))
        assert np.any(out["object[1].weight"])
        assert not np.any(out["object[0].weight"])
        _, _, classes, _ = infer(p, regions, TrainConfig(score_floor=0.0))
        assert len(classes) and all(0 <= c < 2 for c in classes.tolist())
