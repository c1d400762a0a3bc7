import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from box_reference import greedy_nms, pair_iou
from capdet import oicr, scorenet, trainer, weakloss
from eval_reference import evaluate_loop, infer_scene
from openblas_build import openblas_config
from refinement_reference import assignments
from train_reference import scene_supervision, train_loop
from capdet.geometry import iou_matrix, nms
from capdet.scorenet import RegionSet, forward, init_params, save_checkpoint
from capdet.synthbench import (
    GroundTruth,
    SynthConfig,
    SyntheticScene,
    benchmark_vocabulary,
    gen_dataset,
    make_universe,
)
from capdet.textgraph import LabelSet, Vocabulary, default_registry, extract_labels
from capdet.trainer import (
    EVAL_CHUNK,
    EVAL_SETTINGS,
    IOU_THRESHOLD,
    Adagrad,
    NumericalError,
    SceneBatch,
    TrainConfig,
    average_precision,
    evaluate,
    infer,
    label_scenes,
    metrics_report,
    train,
    write_metrics,
)
from capdet.weakloss import Supervision

# the OpenBLAS kernel on which the pinned checkpoint and log bytes were recorded;
# other kernels, Haswell among them, round the training step differently
RECORDED_KERNEL = "SkylakeX"


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def small_world(registry):
    """A small, fast benchmark slice shared by the training tests."""
    config = SynthConfig(feature_dim=16)
    universe = make_universe(config, registry, seed=0)
    scenes = gen_dataset(universe, 16, [0, 0], id_prefix="train")
    vocab = Vocabulary(universe.class_names)
    return universe, scenes, vocab


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.batch_size == 2
        assert cfg.lambda1 == 0.5
        assert cfg.lambda2 == 0.01
        assert cfg.loss_mode == "em+sg"
        assert cfg.num_heads == 3
        assert cfg.tau == 0.5

    def test_em_requires_lambda2_zero(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_mode="em")  # default lambda2 is nonzero
        with pytest.raises(ValueError):
            TrainConfig(lambda2=0.0)  # default mode expects a coupled term
        TrainConfig(loss_mode="em", lambda2=0.0)

    def test_negative_loss_weights_rejected(self):
        with pytest.raises(ValueError, match=r"^lambda1 must be non-negative, got -0\.1$"):
            TrainConfig(lambda1=-0.1)
        with pytest.raises(ValueError, match=r"^lambda2 must be non-negative, got -1\.0$"):
            TrainConfig(lambda2=-1.0)

    def test_attributes_enabled_tracks_lambda2(self):
        assert TrainConfig().attributes_enabled
        assert not TrainConfig(loss_mode="em", lambda2=0.0).attributes_enabled

    def test_validation(self):
        # each refusal names one setting and its value
        for setting, message in [
            ({"learning_rate": 0.0}, "learning_rate must be positive, got 0.0"),
            ({"batch_size": 0}, "batch_size must be positive, got 0"),
            ({"steps": 0}, "steps must be positive, got 0"),
            ({"num_heads": -1}, "num_heads must be positive, got -1"),
            ({"seed": -1}, "seed must be non-negative, got -1"),
            ({"loss_mode": "other"}, "loss_mode must be one of ('em', 'em+sg'), got 'other'"),
            ({"nms_threshold": 0.0}, "nms_threshold must lie in (0, 1], got 0.0"),
            ({"score_floor": 1.0}, "score_floor must lie in [0, 1), got 1.0"),
        ]:
            with pytest.raises(ValueError) as caught:
                TrainConfig(**setting)
            assert str(caught.value) == message


class TestAdagrad:
    def test_first_step_is_near_sign_step(self):
        opt = Adagrad(1, learning_rate=0.1)
        out = np.array([1.0])
        opt.step(out, np.array([2.0]))
        # accum = 4, step = 0.1 * 2 / (2 + eps)
        assert out[0] == pytest.approx(0.9, abs=1e-8)

    def test_accumulation_shrinks_steps(self):
        opt = Adagrad(1, learning_rate=0.1)
        theta = np.array([1.0])
        opt.step(theta, np.array([2.0]))
        theta2 = theta.copy()
        opt.step(theta2, np.array([2.0]))
        # accum = 8 now: step = 0.1 * 2 / sqrt(8)
        assert theta[0] - theta2[0] == pytest.approx(0.2 / math.sqrt(8.0), abs=1e-8)

    def test_zero_gradient_no_move(self):
        opt = Adagrad(3, learning_rate=0.1)
        theta = np.array([1.0, 2.0, 3.0])
        opt.step(theta, np.zeros(3))
        assert np.array_equal(theta, [1.0, 2.0, 3.0])

    def test_per_coordinate_scaling(self):
        opt = Adagrad(2, learning_rate=0.1)
        theta = np.zeros(2)
        opt.step(theta, np.array([1.0, 100.0]))
        # both coordinates move by ~lr despite the gradient scale gap
        assert theta[0] == pytest.approx(-0.1, abs=1e-6)
        assert theta[1] == pytest.approx(-0.1, abs=1e-6)


def step_with_mask(params, batch, sup, config):
    """trainer.batch_step over a batch, with the batch's own overlap mask."""
    return trainer.batch_step(params, batch, sup, oicr.overlap_masks(batch.boxes, config.tau, batch.valid), config)


class TestSceneLoss:
    """A lone scene is a one-scene batch (N = 1) through the training step."""

    def test_components_present(self, small_world, registry):
        universe, scenes, vocab = small_world
        labels = label_scenes(scenes, vocab, registry)
        cfg = TrainConfig(steps=1)
        from capdet.scorenet import init_params

        params = init_params(
            16, vocab.class_names,
            {c: tuple(registry.values[c]) for c in registry.categories},
            cfg.num_heads, seed=0,
        )
        batch = SceneBatch.pack(scenes[:1])
        report, pseudo, _ = step_with_mask(params, batch, scene_supervision(labels[0], params, cfg), cfg)
        assert report.l_total.shape == (1,)
        assert np.isfinite(report.l_total).all()
        assert report.l_oicr.shape == (1, cfg.num_heads)
        assert pseudo.labels.shape == (1, cfg.num_heads, scenes[0].proposals.size)
        assert report.l_mid[0] > 0

    def test_frozen_pseudos_reused(self, small_world, registry):
        universe, scenes, vocab = small_world
        labels = label_scenes(scenes, vocab, registry)
        cfg = TrainConfig(steps=1)
        from capdet.scorenet import init_params

        params = init_params(
            16, vocab.class_names,
            {c: tuple(registry.values[c]) for c in registry.categories},
            cfg.num_heads, seed=0,
        )
        sup = scene_supervision(labels[0], params, cfg)
        batch = SceneBatch.pack(scenes[:1])
        report1, pseudo, _ = step_with_mask(params, batch, sup, cfg)
        report2, _ = trainer.frozen_loss(forward(params, batch), sup, cfg, pseudo)
        assert report1.l_total[0] == pytest.approx(report2.l_total[0], abs=1e-12)


class TestTrain:
    def test_deterministic(self, small_world, registry):
        universe, scenes, vocab = small_world
        cfg = TrainConfig(steps=10)
        a = train(scenes, vocab, registry, cfg)
        b = train(scenes, vocab, registry, cfg)
        assert np.array_equal(a.flat, b.flat)

    def test_loss_decreases(self, small_world, registry):
        universe, scenes, vocab = small_world
        log = []
        cfg = TrainConfig(steps=60)
        train(scenes, vocab, registry, cfg, log_sink=log.append)
        assert len(log) == 60
        first = np.mean([r["l_total"] for r in log[:10]])
        last = np.mean([r["l_total"] for r in log[-10:]])
        assert last < first

    def test_em_and_em_sg_diverge(self, small_world, registry):
        universe, scenes, vocab = small_world
        base = train(scenes, vocab, registry, TrainConfig(steps=5, loss_mode="em", lambda2=0.0))
        full = train(scenes, vocab, registry, TrainConfig(steps=5))
        assert not np.array_equal(base.flat, full.flat)

    def test_em_baseline_never_touches_attribute_heads(self, small_world, registry):
        # with the coupled terms disabled the attribute heads must stay
        # exactly at initialization
        universe, scenes, vocab = small_world
        cfg = TrainConfig(steps=10, loss_mode="em", lambda2=0.0)
        from capdet.scorenet import init_params, iter_param_arrays

        trained = dict(iter_param_arrays(train(scenes, vocab, registry, cfg)))
        virgin = dict(iter_param_arrays(init_params(
            16, vocab.class_names,
            {c: tuple(registry.values[c]) for c in registry.categories},
            cfg.num_heads, seed=cfg.seed,
        )))
        attribute_names = [name for name in trained if name.startswith("attribute[")]
        assert len(attribute_names) == 2 * cfg.num_heads * len(registry.categories)
        for name in attribute_names:
            assert np.array_equal(trained[name], virgin[name])
        # object heads did move
        assert not np.array_equal(trained["object[0].weight"], virgin["object[0].weight"])

    def test_non_finite_parameters_abort_naming_the_step(self, small_world, registry):
        universe, scenes, vocab = small_world
        real_step = Adagrad.step
        steps = []

        def overflowing_step(self, params_flat, grad_flat):
            real_step(self, params_flat, grad_flat)
            steps.append(None)
            if len(steps) == 3:
                params_flat[7] = np.inf  # as when lr * g overflows

        with mock.patch.object(Adagrad, "step", overflowing_step):
            with pytest.raises(trainer.NumericalError, match="non-finite parameters after step 2"):
                train(scenes, vocab, registry, TrainConfig(steps=5))
        assert len(steps) == 3

    def test_empty_dataset_rejected(self, registry):
        with pytest.raises(ValueError):
            train([], Vocabulary(("cat",)), registry, TrainConfig(steps=1))

    def test_batch_larger_than_the_split_rejected_before_any_allocation(self, small_world, registry):
        _, scenes, vocab = small_world
        config = TrainConfig(steps=1, batch_size=len(scenes) + 1)
        with mock.patch.object(scorenet, "init_params", side_effect=AssertionError("built parameters")):
            with pytest.raises(ValueError, match=f"^batch_size must not exceed the split's {len(scenes)} scenes, got {len(scenes) + 1}$"):
                train(scenes, vocab, registry, config)
        train(scenes[:2], vocab, registry, TrainConfig(steps=1, batch_size=2))  # a batch of the whole split is allowed

    def test_log_records_are_json_ready(self, small_world, registry):
        universe, scenes, vocab = small_world
        log = []
        train(scenes, vocab, registry, TrainConfig(steps=3), log_sink=log.append)
        for record in log:
            json.dumps(record)
            assert set(record) >= {"step", "l_total", "l_obj", "l_mid", "l_oicr"}

    def test_one_scenes_labels_alive_at_a_time(self, small_world, registry):
        # each scene's labels are compiled as they are parsed, and dropped before the next scene's are
        _, scenes, vocab = small_world
        made = []

        def parse(*args):
            alive = [n for n, ref in enumerate(made) if ref() is not None]
            assert not alive, f"labels of scenes {alive} alive while scene {len(made)}'s are parsed"
            labels = extract_labels(*args)
            made.append(weakref.ref(labels))
            return labels

        with mock.patch.object(trainer, "extract_labels", parse):
            train(scenes, vocab, registry, TrainConfig(steps=1))
        assert len(made) == len(scenes)

    def test_set_up_memory_over_the_scenes_is_bounded(self, registry):
        # the scenes are made before tracing starts, so the peak is what a run adds over them. On a
        # seed-0 split of train_gap's 2000 scenes it read 4.21 MB when every scene's labels and a
        # (S, W, W) bool overlap array were held, and 1.83 MB with labels compiled scene by scene
        # and the masks as packed bits; about 0.85 MB of that is one chunk's iou_matrix
        # temporaries, which do not grow with the split
        universe = make_universe(SynthConfig(), registry, seed=0)
        scenes = gen_dataset(universe, 2000, [0, 0])
        vocab = benchmark_vocabulary(universe.class_names)
        tracemalloc.start()
        try:
            train(scenes, vocab, registry, TrainConfig(steps=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.75 * 2**20

    def test_set_up_memory_does_not_grow_with_steps(self, small_world, registry):
        # each epoch's scene order is drawn when the one before runs out, not all before step 0
        universe, scenes, vocab = small_world

        def peak_before_first_step(steps):
            tracemalloc.start()
            try:
                with mock.patch.object(trainer, "batch_step", side_effect=RuntimeError("first step")):
                    with pytest.raises(RuntimeError, match="first step"):
                        train(scenes, vocab, registry, TrainConfig(steps=steps, batch_size=8))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_before_first_step(100_000) < peak_before_first_step(1) + 2**20

    @pytest.mark.parametrize(
        ("loss_mode", "checkpoint_digest", "log_digest"),
        [
            (
                "em+sg",
                "93c16856f5791971057000e284f2cf49b8d0f90de862e8385986106837a01293",
                "c2ef785d6cb574923a3b6cae6a1b1e4351b037a44044be88e09ca00b9f7d956b",
            ),
            (
                "em",
                "59d220613596941738d5edd17c7b0ba7e304f9eee1a111cd599fb4d01d86a057",
                "db0a245c7abfbc0d6edcd91e61c4da3fa4fdfe8c00f1686a8f141dd147893e88",
            ),
        ],
        ids=["em+sg", "em"],  # not the digests, so a re-pin keeps the test's name
    )
    def test_seed0_checkpoint_and_log_bytes_pinned(self, registry, tmp_path, loss_mode, checkpoint_digest, log_digest):
        # 40 seed-0 training scenes for 30 steps of 3 scenes, a little over two epochs;
        # the log lines are those capdet train --log writes
        build = openblas_config()
        if build is None or RECORDED_KERNEL not in build.split():
            pytest.skip(f"bytes recorded on the OpenBLAS kernel {RECORDED_KERNEL}; this build: {build}")
        universe = make_universe(SynthConfig(), registry, seed=0)
        config = TrainConfig(seed=0, steps=30, batch_size=3, loss_mode=loss_mode, lambda2=0.01 if loss_mode == "em+sg" else 0.0)
        log = []
        params = train(gen_dataset(universe, 40, [0, 0]), benchmark_vocabulary(universe.class_names), registry, config, log.append)
        save_checkpoint(params, tmp_path / "model.ckpt")
        assert hashlib.sha256((tmp_path / "model.ckpt").read_bytes()).hexdigest() == checkpoint_digest
        lines = "".join(json.dumps(record, sort_keys=True) + "\n" for record in log)
        assert hashlib.sha256(lines.encode()).hexdigest() == log_digest


def unmentioned(scene):
    """The scene with a caption that names no class."""
    return dataclasses.replace(scene, captions=["there is something here."])


def random_scenes(rng, num_scenes, num_classes=3, num_heads=2, d=6, sizes=None):
    """A small model, ragged random scenes, each scene's compiled labels, and a config.

    The model's weights are spread like the gradient check's, so its
    probabilities spread out; about one scene in four mentions no class.
    """
    categories = {"color": ("red", "green", "blue"), "size": ("small", "large")}
    params = init_params(d, [f"c{i}" for i in range(num_classes)], categories, num_heads, seed=int(rng.integers(2**31)))
    params.flat[params.checkpoint_order] += rng.normal(0.0, 0.5, size=params.flat.size)
    scenes, sups = [], []
    config = TrainConfig(steps=1, num_heads=num_heads, tau=float(rng.uniform(0.3, 0.7)))
    for n in range(num_scenes):
        m = int(rng.integers(1, 9)) if sizes is None else sizes[n]
        centers, half = rng.uniform(0.2, 0.8, size=(m, 2)), rng.uniform(0.05, 0.2, size=(m, 2))
        boxes = np.hstack([centers - half, centers + half])
        scenes.append(SyntheticScene(f"s{n}", [], RegionSet(boxes, rng.normal(size=(m, d))), []))
        mentioned = [] if rng.random() < 0.25 else rng.choice(num_classes, int(rng.integers(1, num_classes + 1)), replace=False)
        labels = LabelSet(objects={int(c) for c in mentioned})
        for c in labels.objects:
            if rng.random() < 0.7:
                cat = ("color", "size")[int(rng.integers(2))]
                labels.attribute_pairs[c] = {(cat, categories[cat][int(rng.integers(len(categories[cat])))])}
        sups.append(scene_supervision(labels, params, config))
    return params, scenes, sups, config


def stacked(sups):
    """The Supervision of sups' scenes one after another: their stacked masks, as train stacks and slices them."""
    return Supervision(np.concatenate([sup.positive for sup in sups]), np.concatenate([sup.pairs for sup in sups]))


def random_batch(rng, num_scenes, **kwargs):
    """random_scenes packed into one padded batch, with their stacked labels."""
    params, scenes, sups, config = random_scenes(rng, num_scenes, **kwargs)
    return params, SceneBatch.pack(scenes), stacked(sups), config


class TestBatchedStep:
    """train runs one padded batch per step; tests/train_reference.py runs its scenes one by one."""

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    @pytest.mark.parametrize("loss_mode", ["em+sg", "em"])
    def test_matches_per_scene_loop(self, small_world, registry, loss_mode, batch_size):
        universe, scenes, vocab = small_world
        # ragged proposal counts, and scenes whose captions name no class
        mixed = [unmentioned(scene) if n % 3 == 1 else scene for n, scene in enumerate(scenes)]
        assert len({scene.proposals.size for scene in mixed}) > 1
        cfg = TrainConfig(steps=15, batch_size=batch_size, loss_mode=loss_mode, lambda2=0.01 if loss_mode == "em+sg" else 0.0)
        log, reference_log = [], []
        params = train(mixed, vocab, registry, cfg, log_sink=log.append)
        reference = train_loop(mixed, vocab, registry, cfg, log_sink=reference_log.append)
        assert params.flat.tobytes() == reference.flat.tobytes()
        # loss values only reach the log; a batch sums a scene's padded terms in another grouping
        assert [r["step"] for r in log] == [r["step"] for r in reference_log]
        for record, expected in zip(log, reference_log):
            for key in ("l_obj", "l_entang", "l_mid", "l_total", "l_oicr"):
                np.testing.assert_allclose(record[key], expected[key], rtol=1e-12, atol=1e-300)

    def test_matches_per_scene_loop_without_any_mention(self, small_world, registry):
        universe, scenes, vocab = small_world
        silent = [unmentioned(scene) for scene in scenes[:5]]
        cfg = TrainConfig(steps=4, batch_size=2)
        params = train(silent, vocab, registry, cfg)
        assert params.flat.tobytes() == train_loop(silent, vocab, registry, cfg).flat.tobytes()

    @pytest.mark.parametrize("loss_mode", ["em+sg", "em"])
    def test_one_call_per_layer_per_step(self, small_world, registry, loss_mode):
        universe, scenes, vocab = small_world
        cfg = TrainConfig(steps=7, batch_size=2, loss_mode=loss_mode, lambda2=0.01 if loss_mode == "em+sg" else 0.0)
        with (
            mock.patch.object(scorenet, "forward", wraps=scorenet.forward) as forward,
            mock.patch.object(oicr, "build_pseudo_labels", wraps=oicr.build_pseudo_labels) as pseudo,
            mock.patch.object(weakloss, "total_loss", wraps=weakloss.total_loss) as loss,
            mock.patch.object(scorenet, "param_gradients", wraps=scorenet.param_gradients) as backward,
        ):
            train(scenes, vocab, registry, cfg)
        assert [spy.call_count for spy in (forward, pseudo, loss, backward)] == [cfg.steps] * 4
        # the exact-match baseline never computes the attribute heads
        skipped = [not call.kwargs["attributes"] for call in forward.call_args_list]
        assert all(skipped) if loss_mode == "em" else not any(skipped)

    def test_non_finite_loss_names_its_scene(self, small_world, registry):
        universe, scenes, vocab = small_world
        real = weakloss.total_loss

        def second_scene_diverges(*args, **kwargs):
            report, gradient = real(*args, **kwargs)
            report.l_total[1] = np.inf
            return report, gradient

        second = scenes[np.random.default_rng(0).permutation(len(scenes))[1]].image_id
        with mock.patch.object(weakloss, "total_loss", second_scene_diverges):
            with pytest.raises(NumericalError, match=rf"^non-finite loss at step 0 on scene '{second}': inf$"):
                train(scenes, vocab, registry, TrainConfig(steps=3, batch_size=3))

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_central_differences(self, seed):
        # the batch's summed loss over ragged scenes, refinement supervision frozen
        rng = np.random.default_rng([20240601, seed])
        params, batch, sup, config = random_batch(rng, num_scenes=3, num_heads=1 + seed % 3, sizes=[2, 7, 4])
        report, pseudo, analytic = step_with_mask(params, batch, sup, config)
        base = params.flat.copy()

        def loss(flat):
            params.flat[:] = flat
            return float(trainer.frozen_loss(forward(params, batch), sup, config, pseudo)[0].l_total.sum())

        step = 1e-5
        numeric = np.empty_like(base)
        for i in range(base.size):
            bumped = base.copy()
            bumped[i] += step
            up = loss(bumped)
            bumped[i] -= 2 * step
            numeric[i] = (up - loss(bumped)) / (2 * step)
        params.flat[:] = base
        errors = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
        assert errors.max() < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 10.0))
    def test_padded_rows_change_nothing(self, seed, scale):
        rng = np.random.default_rng(seed)
        params, batch, sup, config = random_batch(rng, num_scenes=int(rng.integers(2, 4)))
        padded = ~batch.valid
        features, boxes = batch.features.copy(), batch.boxes.copy()
        features[padded] = rng.normal(0.0, scale, size=(padded.sum(), features.shape[-1]))
        # copies of the scene's own boxes: each overlaps a real row, maybe a seed, at IoU 1
        for n, row in zip(*np.nonzero(padded)):
            boxes[n, row] = boxes[n, rng.integers(batch.valid[n].sum())]
        moved = dataclasses.replace(batch, features=features, boxes=boxes)
        report, pseudo, grad = step_with_mask(params, batch, sup, config)
        moved_report, moved_pseudo, moved_grad = step_with_mask(params, moved, sup, config)
        assert np.array_equal(report.l_total, moved_report.l_total)
        assert np.array_equal(grad, moved_grad)
        assert np.array_equal(pseudo.labels, moved_pseudo.labels)
        assert np.array_equal(pseudo.weights, moved_pseudo.weights)
        assert not pseudo.weights[np.broadcast_to(padded[:, None], pseudo.weights.shape)].any()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 9), min_size=1, max_size=4))
    def test_batch_equals_its_lone_scenes(self, seed, sizes):
        # one N-scene step against N one-scene steps: the same gradient bits, losses and pseudo-label rows
        rng = np.random.default_rng(seed)
        params, scenes, sups, config = random_scenes(rng, len(sizes), num_heads=int(rng.integers(1, 4)), sizes=sizes)
        batch_sup = stacked(sups)
        report, pseudo, grad = step_with_mask(params, SceneBatch.pack(scenes), batch_sup, config)
        lone = [step_with_mask(params, SceneBatch.pack([scene]), sup, config) for scene, sup in zip(scenes, sups)]
        total = lone[0][2]
        for _, _, g in lone[1:]:
            total = total + g
        assert grad.tobytes() == total.tobytes()
        # each scene's caption terms sum its own entries: a lone scene's bits, up to
        # the sign of a zero (a scene without a mention reads -0.0 in a batch)
        for key in ("l_obj", "l_entang"):
            assert np.array_equal(getattr(report, key), [getattr(r, key)[0] for r, _, _ in lone]), key
        # refinement terms sum over the batch's padded rows, which can move the last bit
        for key in ("l_oicr", "l_total"):
            np.testing.assert_allclose(getattr(report, key), [getattr(r, key)[0] for r, _, _ in lone], rtol=1e-12, atol=0)
        for n, (sup, (_, own, _)) in enumerate(zip(sups, lone)):
            m = sizes[n]
            if not sup.classes.size:
                # a scene without a mention has no refinement supervision: every row weighs 0
                assert not pseudo.weights[n].any() and not own.weights.any()
            assert np.array_equal(pseudo.labels[n, :, :m], own.labels[0, :, :m])
            assert np.array_equal(pseudo.weights[n, :, :m], own.weights[0, :, :m])
            assert not pseudo.weights[n, :, m:].any() and not own.weights[0, :, m:].any()
            assert np.array_equal(pseudo.seeds[:, pseudo_entries(sups, n)], own.seeds)
            batched, alone = assignments(pseudo, batch_sup), assignments(own, sup)
            mine = batched.scenes == n
            for name in ("heads", "regions", "classes", "columns"):
                assert np.array_equal(getattr(batched, name)[mine], getattr(alone, name)), name


def pseudo_entries(sups, n):
    """The positions of scene n's classes in the stacked supervision of sups."""
    start = sum(sup.classes.size for sup in sups[:n])
    return np.arange(start, start + sups[n].classes.size)


def ragged_scenes(rng, count, d=4):
    """count scenes of 1 to 9 random proposals each, some of them copies of one another."""
    scenes = []
    for n in range(count):
        m = int(rng.integers(1, 10))
        centers, half = rng.uniform(0.2, 0.8, size=(m, 2)), rng.uniform(0.05, 0.3, size=(m, 2))
        boxes = np.hstack([centers - half, centers + half])
        if m > 1 and rng.random() < 0.3:
            boxes[-1] = boxes[0]  # IoU exactly 1
        scenes.append(SyntheticScene(f"s{n}", [], RegionSet(boxes, rng.normal(size=(m, d))), []))
    return scenes


class TestOverlapMasks:
    """train builds every scene's overlap mask once per run, over padded chunks of EVAL_CHUNK scenes."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_stacked_blocks_equal_the_batch_mask(self, seed):
        rng = np.random.default_rng(seed)
        scenes = ragged_scenes(rng, int(rng.integers(1, 2 * EVAL_CHUNK + 5)))
        tau = float(rng.choice([0.3, 0.5, 0.7, 1.0]))
        blocks = trainer.overlap_blocks(scenes, tau)
        sizes = [s.proposals.size for s in scenes]
        widest = max(2, *sizes)
        assert blocks.shape == (len(scenes), widest, -(-widest // 8)) and blocks.dtype == np.uint8
        bits = np.unpackbits(blocks, axis=-1)
        assert not bits[..., widest:].any()
        for block, size in zip(bits, sizes):
            assert not block[size:].any() and not block[:, size:].any()
        picks = rng.integers(len(scenes), size=int(rng.integers(1, 5)))
        batch = SceneBatch.pack([scenes[i] for i in picks])
        width = batch.valid.shape[1]
        # the training step's read
        near = np.unpackbits(blocks[picks, :width], axis=-1, count=width).view(bool)
        valid = batch.valid
        expected = (iou_matrix(batch.boxes, batch.boxes) >= tau) & valid[:, :, None] & valid[:, None, :]
        assert near.dtype == bool
        assert np.array_equal(near, expected)
        assert np.array_equal(near, oicr.overlap_masks(batch.boxes, tau, batch.valid))

    def test_chunks_follow_proposal_count(self):
        # each chunk pads only to its own largest scene, the scenes taken by proposal count
        scenes = ragged_scenes(np.random.default_rng(5), 2 * EVAL_CHUNK + 3)
        with mock.patch.object(oicr, "iou_matrix", wraps=oicr.iou_matrix) as spy:
            trainer.overlap_blocks(scenes, 0.5)
        sizes = sorted(scene.proposals.size for scene in scenes)
        chunks = [sizes[start : start + EVAL_CHUNK] for start in range(0, len(sizes), EVAL_CHUNK)]
        assert [call.args[0].shape[:2] for call in spy.call_args_list] == [(len(c), max(2, c[-1])) for c in chunks]

    def test_pads_boxes_alone(self):
        # the features a SceneBatch would pad are never read by the masks
        scenes = ragged_scenes(np.random.default_rng(6), EVAL_CHUNK + 3)
        with mock.patch.object(SceneBatch, "pack", side_effect=AssertionError("packed a SceneBatch")):
            blocks = trainer.overlap_blocks(scenes, 0.5)
        assert blocks.shape[0] == len(scenes)

    @pytest.mark.parametrize("count", [1, EVAL_CHUNK, EVAL_CHUNK + 1, 35])
    def test_one_iou_matrix_call_per_chunk_per_run(self, small_world, registry, count):
        _, scenes, vocab = small_world
        many = [scenes[n % len(scenes)] for n in range(count)]
        with mock.patch.object(oicr, "iou_matrix", wraps=oicr.iou_matrix) as spy:
            train(many, vocab, registry, TrainConfig(steps=5, batch_size=min(2, count)))
        assert spy.call_count == math.ceil(count / EVAL_CHUNK)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pair_free_batch_skips_pair_seeding(self, seed):
        # captions without attributes, or the baseline: the skipped pair half would find nothing
        rng = np.random.default_rng(seed)
        params, batch, sup, config = random_batch(rng, num_scenes=int(rng.integers(1, 4)), num_heads=int(rng.integers(1, 4)))
        sup = Supervision(sup.positive, np.zeros_like(sup.pairs))
        scores = forward(params, batch, attributes=False)
        near = oicr.overlap_masks(batch.boxes, config.tau, batch.valid)
        pseudo = oicr.build_pseudo_labels(scores, sup, near)
        # every class's seeds, (K, N, C), as build_pseudo_labels hands them to coupled_assignments
        seeds = np.zeros((config.num_heads, *sup.positive.shape), dtype=int)
        seeds[:, sup.class_scenes, sup.classes] = pseudo.seeds
        unskipped = oicr.coupled_assignments(scores, sup, near, seeds)
        assert (pseudo.coupled.dtype, pseudo.coupled.shape) == (unskipped.dtype, unskipped.shape)
        assert np.array_equal(pseudo.coupled, unskipped)


def scene_detections(dets, n):
    """Scene n's (region, class, score) arrays out of infer's four parallel arrays."""
    scenes, regions, classes, scores = dets
    mine = scenes == n
    return regions[mine], classes[mine], scores[mine]


class TestSceneBatch:
    def test_pads_to_the_largest_scene(self, small_world):
        _, scenes, _ = small_world
        chunk = scenes[:5]
        batch = SceneBatch.pack(chunk)
        width = max(scene.proposals.size for scene in chunk)
        assert batch.features.shape == (5, width, 16) and batch.boxes.shape == (5, width, 4)
        assert batch.image_ids == tuple(scene.image_id for scene in chunk)
        for n, scene in enumerate(chunk):
            m = scene.proposals.size
            assert batch.valid[n].tolist() == [True] * m + [False] * (width - m)
            assert np.array_equal(batch.features[n, :m], scene.proposals.features)
            assert np.array_equal(batch.boxes[n, :m], scene.proposals.boxes)
            assert not batch.features[n, m:].any()
            assert (batch.boxes[n, m:] == [0.0, 0.0, 1.0, 1.0]).all()

    def test_empty(self):
        batch = SceneBatch.pack([])
        assert batch.features.shape == (0, 0, 0) and batch.boxes.shape == (0, 0, 4) and batch.valid.shape == (0, 0)
        assert batch.image_ids == ()


class TestInfer:
    def test_nms_and_floor_respected(self, small_world, registry):
        universe, scenes, vocab = small_world
        cfg = TrainConfig(steps=30)
        params = train(scenes, vocab, registry, cfg)
        dets = infer(params, SceneBatch.pack(scenes[:8]), cfg)
        assert len({len(a) for a in dets}) == 1
        assert set(dets[0].tolist()) <= set(range(8))
        for n, scene in enumerate(scenes[:8]):
            regions, classes, scores = scene_detections(dets, n)
            per_class = {}
            for i, c, score in zip(regions.tolist(), classes.tolist(), scores.tolist()):
                assert score >= cfg.score_floor
                assert 0 <= c < len(vocab.class_names)
                assert i < scene.proposals.size
                per_class.setdefault(c, []).append(tuple(scene.proposals.boxes[i]))
            for boxes in per_class.values():
                for i in range(len(boxes)):
                    for j in range(i + 1, len(boxes)):
                        assert pair_iou(boxes[i], boxes[j]) < cfg.nms_threshold

    # this 30-step model's detection scores lie in about (0.07, 0.17); 0.11 drops about half
    @pytest.mark.parametrize("score_floor", [0.0, 0.05, 0.11])
    def test_matches_per_class_loop(self, small_world, registry, score_floor):
        # one nms call per chunk; each scene's kept rows, floored, are a per-class greedy loop in the same order
        universe, scenes, vocab = small_world
        params = train(scenes, vocab, registry, TrainConfig(steps=30))
        cfg = TrainConfig(steps=30, score_floor=score_floor)
        calls = []
        spy = lambda boxes, scores, threshold, valid: calls.append(scores) or nms(boxes, scores, threshold, valid)
        with mock.patch.object(trainer, "nms", spy):
            dets = infer(params, SceneBatch.pack(scenes[:8]), cfg)
        (mean_scores,) = calls
        assert np.array_equal(dets[0], np.sort(dets[0], kind="stable"))
        for n, scene in enumerate(scenes[:8]):
            regions, classes, scores = scene_detections(dets, n)
            m = scene.proposals.size
            objects = forward(params, SceneBatch.pack([scene])).objects[0]
            np.testing.assert_allclose(mean_scores[n, :m], np.mean([h[:, :-1] for h in objects], axis=0), atol=1e-12)
            boxes = scene.proposals.boxes.tolist()
            expected = [
                (i, c)
                for c in range(params.num_classes)
                for i in greedy_nms(boxes, mean_scores[n, :m, c], cfg.nms_threshold)
                if mean_scores[n, i, c] >= score_floor
            ]
            assert list(zip(regions.tolist(), classes.tolist())) == expected
            assert scores.tolist() == [mean_scores[n, i, c] for i, c in expected]

    def test_scene_detections_do_not_depend_on_chunk(self, small_world, registry, test_pool):
        # a scene's detections in a padded chunk have the bits of its lone batch's
        params = small_model(small_world, registry, 0, 6, 20.0)
        scenes = [scene_variant(scene, SCENE_KINDS[n % len(SCENE_KINDS)]) for n, scene in enumerate(test_pool)]
        cfg = TrainConfig(score_floor=0.0)
        for start in range(0, len(scenes), EVAL_CHUNK):
            chunk = scenes[start : start + EVAL_CHUNK]
            dets = infer(params, SceneBatch.pack(chunk), cfg)
            for n, scene in enumerate(chunk):
                lone = infer(params, SceneBatch.pack([scene]), cfg)
                for ours, theirs in zip(scene_detections(dets, n), scene_detections(lone, 0)):
                    assert np.array_equal(ours, theirs)

    def test_padded_rows_are_not_checked(self, small_world, registry):
        # NaN features on a padded row are never scored as a detection, and raise nothing
        universe, scenes, vocab = small_world
        cfg = TrainConfig(steps=5)
        params = train(scenes, vocab, registry, cfg)
        batch = SceneBatch.pack(scenes[:4])
        clean = infer(params, batch, cfg)
        padded = ~batch.valid
        assert padded.any(), "the fixture's scenes should differ in size"
        batch.features[padded] = np.nan
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dirty = infer(params, batch, cfg)
        assert caught == []
        for a, b in zip(clean, dirty):
            assert np.array_equal(a, b)


def box_ap(detections, gt_boxes):
    """average_precision over (scene id, score, box) detections and per-scene GT box lists."""
    # a GT box's id is its position in this list, so ids are unique across scenes
    ids = [(scene_id, j) for scene_id, boxes in gt_boxes.items() for j in range(len(boxes))]
    matches = []
    for scene_id, _, box in detections:
        row = iou_matrix([box], np.reshape(gt_boxes.get(scene_id, []), (-1, 4)))[0]
        best = int(np.argmax(row)) if len(row) else -1
        matches.append(ids.index((scene_id, best)) if best >= 0 and row[best] >= IOU_THRESHOLD else -1)
    return average_precision(np.array([score for _, score, _ in detections]), np.array(matches, dtype=int), len(ids))


def reference_ap(detections, gt_boxes):
    """The all-point AP, matching each detection against its scene's GT boxes one pair at a time."""
    total_gt = sum(len(v) for v in gt_boxes.values())
    if total_gt == 0:
        return 0.0
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1], i))
    matched = {k: [False] * len(v) for k, v in gt_boxes.items()}
    tp = []
    for i in order:
        scene_id, _, box = detections[i]
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(gt_boxes.get(scene_id, ())):
            v = pair_iou(box, g)
            if v > best_iou:
                best_iou, best_j = v, j
        hit = best_j >= 0 and best_iou >= 0.5 and not matched[scene_id][best_j]
        if hit:
            matched[scene_id][best_j] = True
        tp.append(hit)
    ap, prev_recall, hits = 0.0, 0.0, 0
    precisions = [sum(tp[: r + 1]) / (r + 1) for r in range(len(tp))]
    for r, hit in enumerate(tp):
        if hit:
            hits += 1
            recall = hits / total_gt
            ap += (recall - prev_recall) * max(precisions[r:])
            prev_recall = recall
    return ap


# a small grid of boxes, so detections and GT boxes often coincide or overlap at exactly 1/2
_grid_box = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 2), st.integers(1, 2)).map(
    lambda t: (float(t[0]), float(t[1]), float(t[0] + t[2]), float(t[1] + t[3]))
)
_score = st.sampled_from([0.2, 0.5, 0.9])


def batch_detections(per_scene):
    """Each scene's (region, class, score) tuples as infer's four parallel (scene, region, class, score) arrays."""
    rows = np.reshape(np.array([(n, *d) for n, dets in enumerate(per_scene) for d in dets], dtype=float), (-1, 4))
    return rows[:, 0].astype(int), rows[:, 1].astype(int), rows[:, 2].astype(int), rows[:, 3]


def eval_scene(k, proposals, gt):
    """Scene s<k> with the given proposal boxes and (box, class) GT records."""
    return SyntheticScene(
        image_id=f"s{k}",
        gt=[GroundTruth(box=b, class_index=c, attributes=[]) for b, c in gt],
        proposals=RegionSet(boxes=proposals, features=np.zeros((len(proposals), 1))),
        captions=["a cat."],
    )


@st.composite
def eval_scenes(draw, num_classes=3):
    """Scenes with proposals, GT records and (region, class, score) detections, all on the box grid."""
    scenes = []
    for k in range(draw(st.integers(1, 3))):
        proposals = draw(st.lists(_grid_box, min_size=1, max_size=6))
        gt = draw(st.lists(st.tuples(_grid_box, st.integers(0, num_classes - 1)), max_size=4))
        detections = draw(
            st.lists(
                st.tuples(st.integers(0, len(proposals) - 1), st.integers(0, num_classes - 1), _score),
                max_size=8,
            )
        )
        scenes.append((eval_scene(k, proposals, gt), detections))
    return scenes


# the first detection overlaps both GT boxes by 1/2 and takes the first; the second detection,
# which overlaps only that box, is then a false positive
TIED_OVERLAP = [
    (
        eval_scene(0, [(0.0, 0.0, 2.0, 1.0), (0.0, 0.0, 1.0, 1.0)], [((0.0, 0.0, 1.0, 1.0), 0), ((1.0, 0.0, 2.0, 1.0), 0)]),
        [(0, 0, 0.9), (1, 0, 0.5)],
    )
]


@pytest.fixture(scope="module")
def test_pool(small_world):
    universe, _, _ = small_world
    return gen_dataset(universe, 2 * EVAL_CHUNK + 1, [0, 2], id_prefix="test")


# "blank" zeroes a scene's features, so every row scores the bias row alone and, with
# weights scaled up against the bias, falls below a 0.3 floor that plain scenes pass;
# "one_proposal" keeps a scene's first proposal, features and all
SCENE_KINDS = ("plain", "no_gt", "blank", "shared_id", "one_proposal", "plain")


def scene_variant(scene, kind):
    if kind == "no_gt":
        return dataclasses.replace(scene, gt=[])
    if kind == "blank":
        features = np.zeros_like(scene.proposals.features)
        return dataclasses.replace(scene, proposals=RegionSet(scene.proposals.boxes, features))
    if kind == "shared_id":
        return dataclasses.replace(scene, image_id="shared")
    if kind == "one_proposal":
        return dataclasses.replace(scene, proposals=RegionSet(scene.proposals.boxes[:1], scene.proposals.features[:1]))
    return scene


def small_model(small_world, registry, seed, steps, weight_scale):
    """A briefly trained model whose weight rows, not its bias row, are scaled by weight_scale."""
    universe, scenes, vocab = small_world
    params = train(scenes, vocab, registry, TrainConfig(seed=seed, steps=steps))
    params.packed[:-1] *= weight_scale
    return params


class TestAveragePrecision:
    def test_reference_example(self):
        # hit at 0.9, miss at 0.8, hit at 0.7 against two GT boxes:
        # precision envelope gives 0.5 * 1 + 0.5 * (2/3)
        gt = {"s": [(0, 0, 1, 1), (5, 5, 6, 6)]}
        detections = [
            ("s", 0.9, (0, 0, 1, 1)),
            ("s", 0.8, (10, 10, 11, 11)),
            ("s", 0.7, (5, 5, 6, 6)),
        ]
        assert box_ap(detections, gt) == pytest.approx(0.5 + 0.5 * (2.0 / 3.0))

    def test_perfect_detection(self):
        gt = {"s": [(0, 0, 1, 1)]}
        assert box_ap([("s", 0.9, (0, 0, 1, 1))], gt) == 1.0

    def test_no_detections(self):
        assert box_ap([], {"s": [(0, 0, 1, 1)]}) == 0.0

    def test_no_gt(self):
        assert box_ap([("s", 0.9, (0, 0, 1, 1))], {}) == 0.0

    def test_double_detection_counts_one_tp(self):
        # second detection of the same GT box is a false positive
        gt = {"s": [(0, 0, 1, 1)]}
        detections = [
            ("s", 0.9, (0, 0, 1, 1)),
            ("s", 0.8, (0.01, 0.0, 1.01, 1.0)),
        ]
        value = box_ap(detections, gt)
        assert value == pytest.approx(1.0)  # the fp comes after full recall

    def test_threshold_boundary(self):
        gt = {"s": [(0, 0, 2, 2)]}
        half = (0, 0, 2, 1.0)  # IoU exactly 0.5
        assert pair_iou(half, (0, 0, 2, 2)) == pytest.approx(0.5)
        assert box_ap([("s", 0.9, half)], gt) == pytest.approx(1.0)

    def test_wrong_scene_is_fp(self):
        gt = {"a": [(0, 0, 1, 1)]}
        assert box_ap([("b", 0.9, (0, 0, 1, 1))], gt) == 0.0

    def test_score_order_matters(self):
        # fp ranked above the tp caps the envelope at 1/2
        gt = {"s": [(0, 0, 1, 1)]}
        detections = [
            ("s", 0.9, (10, 10, 11, 11)),
            ("s", 0.8, (0, 0, 1, 1)),
        ]
        assert box_ap(detections, gt) == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("abc"), _score, _grid_box), max_size=12),
        st.dictionaries(st.sampled_from("abc"), st.lists(_grid_box, max_size=3)),
    )
    def test_matches_loop_reference(self, detections, gt_boxes):
        assert box_ap(detections, gt_boxes) == pytest.approx(reference_ap(detections, gt_boxes), abs=1e-12)


class TestEvaluate:
    def test_report_shape_and_ranges(self, small_world, registry):
        universe, scenes, vocab = small_world
        cfg = TrainConfig(steps=30)
        params = train(scenes, vocab, registry, cfg)
        metrics = evaluate(params, scenes[:8], cfg)
        assert set(metrics) == {"per_class_ap", "map", "per_class_corloc", "corloc", "num_scenes"}
        assert 0.0 <= metrics["map"] <= 1.0
        assert 0.0 <= metrics["corloc"] <= 1.0
        assert metrics["num_scenes"] == 8
        for v in metrics["per_class_ap"].values():
            assert 0.0 <= v <= 1.0
        # only classes present in the slice's GT are reported
        present = {universe.class_names[g.class_index] for s in scenes[:8] for g in s.gt}
        assert set(metrics["per_class_ap"]) == present

    @settings(max_examples=150, deadline=None)
    @given(eval_scenes())
    @example(TIED_OVERLAP)
    def test_ap_and_corloc_match_loop_reference(self, scenes_and_detections):
        class_names = ("c0", "c1", "c2")
        params = SimpleNamespace(num_classes=3, class_names=class_names)
        scenes = [scene for scene, _ in scenes_and_detections]
        by_id = {scene.image_id: dets for scene, dets in scenes_and_detections}
        fake_infer = lambda _, batch, __: batch_detections([by_id[image_id] for image_id in batch.image_ids])
        with mock.patch.object(trainer, "infer", fake_infer):
            metrics = evaluate(params, scenes, TrainConfig())

        expected_ap, expected_corloc = {}, {}
        for c, name in enumerate(class_names):
            gt_boxes = {}
            detections = []
            hits = total = 0
            for scene, dets in scenes_and_detections:
                gt_here = [g.box for g in scene.gt if g.class_index == c]
                if gt_here:
                    gt_boxes[scene.image_id] = gt_here
                ours = [(region, score) for region, det_class, score in dets if det_class == c]
                detections += [(scene.image_id, score, tuple(scene.proposals.boxes[region])) for region, score in ours]
                if gt_here:
                    total += 1
                    best = None
                    for region, score in ours:
                        if best is None or score > best[1]:
                            best = (region, score)
                    box = None if best is None else tuple(scene.proposals.boxes[best[0]])
                    hits += box is not None and any(pair_iou(box, g) >= 0.5 for g in gt_here)
            if gt_boxes:
                expected_ap[name] = reference_ap(detections, gt_boxes)
                expected_corloc[name] = hits / total
        assert metrics["per_class_ap"] == pytest.approx(expected_ap, abs=1e-12)
        assert metrics["per_class_corloc"] == expected_corloc

    def test_scenes_sharing_an_id_are_scored_apart(self):
        # both scenes are named s0; only the first one's GT box is found, so recall stops at 1/2
        found = eval_scene(0, [(0.0, 0.0, 1.0, 1.0)], [((0.0, 0.0, 1.0, 1.0), 0)])
        missed = eval_scene(0, [(2.0, 2.0, 3.0, 3.0)], [((0.0, 0.0, 1.0, 1.0), 0)])
        params = SimpleNamespace(num_classes=1, class_names=("c0",))
        fake_infer = lambda _, batch, __: batch_detections([[(0, 0, 0.9)]] * len(batch.image_ids))
        with mock.patch.object(trainer, "infer", fake_infer):
            metrics = evaluate(params, [found, missed], TrainConfig())
        assert metrics["per_class_ap"] == {"c0": 0.5}
        assert metrics["per_class_corloc"] == {"c0": 0.5}

    def test_no_scenes(self):
        params = SimpleNamespace(num_classes=3, class_names=("c0", "c1", "c2"))
        assert evaluate(params, [], TrainConfig()) == {
            "per_class_ap": {},
            "map": 0.0,
            "per_class_corloc": {},
            "corloc": 0.0,
            "num_scenes": 0,
        }

    @pytest.mark.parametrize("good_before", [1, EVAL_CHUNK])
    def test_first_non_finite_scene_is_named(self, small_world, registry, good_before):
        # every object logit of an overflowing scene is +inf, so its softmax is NaN; the
        # good scenes score finitely, and the first bad scene in input order is named
        universe, scenes, vocab = small_world
        params = train(scenes, vocab, registry, TrainConfig(steps=1))
        params.flat[:] = 1.0
        overflowing = [
            dataclasses.replace(
                scene,
                image_id=f"bad{k}",
                proposals=RegionSet(scene.proposals.boxes, np.full_like(scene.proposals.features, 1e308)),
            )
            for k, scene in enumerate(scenes[:2])
        ]
        chunked = [scenes[k % len(scenes)] for k in range(good_before)] + overflowing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match=r"^scene 'bad0': non-finite object scores$"):
                evaluate(params, chunked, TrainConfig())
            with pytest.raises(NumericalError, match=r"^scene 'bad1': non-finite object scores$"):
                evaluate(params, [scenes[0], overflowing[1]], TrainConfig())
            # the same message as the loop reference's
            with pytest.raises(NumericalError, match=r"^scene 'bad0': non-finite object scores$"):
                evaluate_loop(params, chunked, TrainConfig())
        assert caught == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_scene_loop(self, small_world, registry, test_pool, data):
        # exact equality with the one-scene loop, over chunk boundaries, scenes without GT,
        # scenes whose detections all fall below the floor, scenes that share an image_id
        # and one-proposal scenes
        count = data.draw(
            st.one_of(st.sampled_from([1, EVAL_CHUNK, EVAL_CHUNK + 1]), st.integers(1, 2 * EVAL_CHUNK + 1))
        )
        picks = data.draw(st.lists(st.integers(0, len(test_pool) - 1), min_size=count, max_size=count))
        kinds = data.draw(st.lists(st.sampled_from(SCENE_KINDS), min_size=count, max_size=count))
        scenes = [scene_variant(test_pool[i], kind) for i, kind in zip(picks, kinds)]
        params = small_model(
            small_world,
            registry,
            data.draw(st.integers(0, 2), label="seed"),
            data.draw(st.integers(1, 6), label="steps"),
            data.draw(st.sampled_from([1.0, 20.0]), label="weight scale"),
        )
        config = TrainConfig(
            score_floor=data.draw(st.sampled_from([0.0, 0.05, 0.11, 0.3]), label="floor"),
            nms_threshold=data.draw(st.sampled_from([0.4, 1.0 / 3.0, 0.7]), label="nms"),
        )
        assert evaluate(params, scenes, config) == evaluate_loop(params, scenes, config)

    @pytest.mark.parametrize("count", [1, EVAL_CHUNK, EVAL_CHUNK + 1])
    def test_matches_scene_loop_at_chunk_sizes(self, small_world, registry, test_pool, count):
        params = small_model(small_world, registry, 0, 6, 20.0)
        config = TrainConfig(score_floor=0.3)
        kinds = [SCENE_KINDS[k % len(SCENE_KINDS)] for k in range(count)]
        scenes = [scene_variant(test_pool[k], kind) for k, kind in enumerate(kinds)]
        assert evaluate(params, scenes, config) == evaluate_loop(params, scenes, config)
        if count > len(SCENE_KINDS):
            # the cases the scene kinds stand for all occur
            counts = [len(infer_scene(params, scene.proposals, config)[0]) for scene in scenes]
            assert 0 in counts and max(counts) > 0
            assert any(not scene.gt for scene in scenes)
            assert len({scene.image_id for scene in scenes}) < count

    def test_seed0_metrics_bytes_pinned(self, registry, tmp_path):
        # 60 seed-0 training scenes for 50 steps, then 40 test scenes at the default floor and NMS
        universe = make_universe(SynthConfig(), registry, seed=0)
        config = TrainConfig(seed=0, steps=50)
        vocab = benchmark_vocabulary(universe.class_names)
        params = train(gen_dataset(universe, 60, [0, 0]), vocab, registry, config)
        metrics = evaluate(params, gen_dataset(universe, 40, [0, 2], id_prefix="test"), config)
        path = tmp_path / "metrics.json"
        write_metrics(path, metrics_report(metrics, config))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "b5806f166f1c00b4e387369cc7a413e9763cc158b3025f209c7e57bf473e6953"

    def test_metrics_report_echoes_config(self):
        # the training fields did not produce the metrics, so none is echoed
        cfg = TrainConfig(steps=5, seed=9, score_floor=0.1)
        report = metrics_report({"map": 0.5}, cfg)
        assert report == {"map": 0.5, "config_echo": {"nms_threshold": 0.4, "score_floor": 0.1}}
        assert tuple(report["config_echo"]) == EVAL_SETTINGS

    def test_write_metrics_deterministic(self, tmp_path):
        report = {"map": 0.5, "per_class_ap": {"cat": 0.5}}
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_metrics(p1, report)
        write_metrics(p2, report)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text())["map"] == 0.5
