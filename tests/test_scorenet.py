import json

import numpy as np
import pytest

from capdet.scorenet import (
    CHECKPOINT_MAGIC,
    ModelParams,
    RegionSet,
    ScoreGrads,
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
from capdet.trainer import TrainConfig, infer

CATS = {"color": ("red", "green"), "size": ("small", "large")}


def make_regions(rng, m, d):
    boxes = []
    for _ in range(m):
        x0, y0 = rng.uniform(0, 0.5, 2)
        boxes.append([x0, y0, x0 + rng.uniform(0.1, 0.4), y0 + rng.uniform(0.1, 0.4)])
    return RegionSet(np.array(boxes), rng.normal(size=(m, d)))


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=50, size=(5, 7))
        s = softmax_rows(z)
        assert np.allclose(s.sum(axis=1), 1.0)
        assert (s > 0).all()

    def test_softmax_cols_sum_to_one(self):
        rng = np.random.default_rng(1)
        s = softmax_cols(rng.normal(scale=50, size=(5, 7)))
        assert np.allclose(s.sum(axis=0), 1.0)

    def test_softmax_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax_rows(z), softmax_rows(z + 1000.0))

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
        assert p.object_heads[0].weight.shape == (8, 4)  # classes + background
        assert p.attribute_heads[0]["color"].weight.shape == (8, 2)
        assert p.mid_det.weight.shape == (8, 3)
        assert (p.object_heads[0].bias == 0).all()

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
        regions = RegionSet(
            np.array([[0, 0, 1, 1], [1, 1, 2, 2]], dtype=float),
            np.ones((2, 4)),
        )
        scores, mid = forward(p, regions)
        assert np.allclose(mid.per_region, 0.25)
        assert mid.image_level[0] == pytest.approx(0.6224593312018546, abs=1e-12)
        assert np.allclose(scores.objects[0], 0.5)  # 2 columns: class + bg

    def test_zero_params_single_region(self):
        # softmax over a single region is 1, so evidence is the gate alone
        p = zero_params(("cat",), CATS, d=4)
        regions = RegionSet(np.array([[0, 0, 1, 1]], dtype=float), np.zeros((1, 4)))
        _, mid = forward(p, regions)
        assert mid.per_region[0, 0] == pytest.approx(0.5)
        assert mid.image_level[0] == pytest.approx(sigmoid(np.array([0.5]))[0])

    def test_image_level_open_interval(self):
        rng = np.random.default_rng(9)
        p = init_params(6, ("a", "b", "c"), CATS, 1, seed=3)
        for _ in range(20):
            regions = make_regions(rng, rng.integers(1, 9), 6)
            _, mid = forward(p, regions)
            assert (mid.image_level > 0.5).all()
            assert (mid.image_level < 1.0).all()

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(10)
        p = init_params(6, ("a", "b"), CATS, 2, seed=4)
        regions = make_regions(rng, 5, 6)
        scores, _ = forward(p, regions)
        for head in scores.objects:
            assert head.shape == (5, 3)
            assert np.allclose(head.sum(axis=1), 1.0, atol=1e-6)
        for head in scores.attributes:
            assert head.shape == (5, 4)
            for cols in p.category_slices.values():
                assert np.allclose(head[:, cols].sum(axis=1), 1.0, atol=1e-6)

    def test_feature_dim_mismatch(self):
        p = init_params(6, ("a",), CATS, 1, seed=0)
        with pytest.raises(ValueError):
            forward(p, RegionSet(np.array([[0, 0, 1, 1]], dtype=float), np.zeros((1, 5))))


class TestParamGradients:
    def _fd_check(self, params, regions, grads, rng, n_coords=60):
        """Finite-difference check of d/dtheta sum(grads * outputs)."""

        def value(p):
            scores, mid = forward(p, regions)
            total = 0.0
            for g, s in zip(grads.objects + grads.attributes, scores.objects + scores.attributes):
                total += float((g * s).sum())
            total += float((grads.mid_per_region * mid.per_region).sum())
            total += float((grads.mid_image * mid.image_level).sum())
            return total

        scores, _ = forward(params, regions)
        analytic = param_gradients(params, regions, scores, grads).flat
        flat = params.flat
        coords = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
        h = 1e-6
        for c in coords:
            original = flat[c]
            flat[c] = original + h
            up = value(params)
            flat[c] = original - h
            down = value(params)
            flat[c] = original
            numeric = (up - down) / (2 * h)
            denom = max(1.0, abs(analytic[c]), abs(numeric))
            assert abs(analytic[c] - numeric) / denom < 1e-5

    def test_against_finite_differences(self):
        rng = np.random.default_rng(21)
        p = init_params(5, ("a", "b"), CATS, 2, seed=8)
        regions = make_regions(rng, 4, 5)
        scores, mid = forward(p, regions)
        grads = ScoreGrads(
            objects=[rng.normal(size=s.shape) for s in scores.objects],
            attributes=[rng.normal(size=a.shape) for a in scores.attributes],
            mid_per_region=rng.normal(size=mid.per_region.shape),
            mid_image=rng.normal(size=mid.image_level.shape),
        )
        self._fd_check(p, regions, grads, rng)

    def test_zero_upstream_gives_zero_param_grad(self):
        rng = np.random.default_rng(22)
        p = init_params(5, ("a", "b"), CATS, 3, seed=9)
        regions = make_regions(rng, 4, 5)
        scores, mid = forward(p, regions)
        grads = ScoreGrads.zeros_like(scores, mid)
        grads.objects[1][0, 0] = 1.0  # only head 1 receives signal
        out = param_gradients(p, regions, scores, grads)
        assert not np.any(out.object_heads[0].weight)
        assert np.any(out.object_heads[1].weight)
        assert not np.any(out.object_heads[2].weight)
        assert not np.any(out.mid_det.weight)
        for head in out.attribute_heads:
            for aff in head.values():
                assert not np.any(aff.weight)

    def test_mid_image_gradient_only(self):
        rng = np.random.default_rng(23)
        p = init_params(5, ("a", "b"), CATS, 1, seed=10)
        regions = make_regions(rng, 3, 5)
        scores, mid = forward(p, regions)
        grads = ScoreGrads.zeros_like(scores, mid)
        grads.mid_image[:] = rng.normal(size=2)
        self._fd_check(p, regions, grads, rng, n_coords=40)


class TestFlatten:
    """The single buffer: every head is a view into params.flat."""

    def test_round_trip(self):
        p = init_params(7, ("a", "b", "c"), CATS, 2, seed=13)
        back = p.like(p.flat.copy())
        assert np.array_equal(back.flat, p.flat)
        # the named views tile the buffer in order, with nothing left over
        assert np.array_equal(np.concatenate([a.ravel() for _, a in iter_param_arrays(p)]), p.flat)

    def test_wrong_size_rejected(self):
        p = init_params(4, ("a",), CATS, 1, seed=0)
        with pytest.raises(ValueError):
            p.like(np.zeros(3))
        with pytest.raises(ValueError):
            p.like(np.zeros(p.flat.size + 1))

    def test_writes_through_flat_reach_the_views(self):
        p = init_params(4, ("a", "b"), CATS, 2, seed=0)
        p.flat[0] = 123.0
        assert p.object_heads[0].weight[0, 0] == 123.0
        p.flat[-1] = -7.0
        assert p.mid_cls.bias[-1] == -7.0
        p.attribute_heads[1]["size"].bias[0] = 5.0
        assert 5.0 in p.flat

    def test_like_shares_the_buffer(self):
        p = init_params(4, ("a",), CATS, 1, seed=0)
        buf = np.zeros_like(p.flat)
        q = p.like(buf)
        buf[:] = 1.0
        assert (q.object_heads[0].weight == 1.0).all()
        assert (p.object_heads[0].weight != 1.0).all()

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
        scores, mid = forward(p, regions)
        assert [a.shape for a in scores.attributes] == [(4, 0), (4, 0)]
        grads = ScoreGrads.zeros_like(scores, mid)
        grads.objects[1][:] = rng.normal(size=grads.objects[1].shape)
        out = param_gradients(p, regions, scores, grads)
        assert np.any(out.object_heads[1].weight)
        assert not np.any(out.object_heads[0].weight)
        detections = infer(p, regions, TrainConfig(score_floor=0.0))
        assert detections and all(0 <= det.class_index < 2 for det in detections)
