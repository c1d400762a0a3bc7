import dataclasses
import hashlib
import json
import tracemalloc

import gradcheck_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from openblas_build import openblas_config
from train_reference import scene_supervision

from capdet import gradcheck, oicr, scorenet
from capdet.oicr import PseudoLabels
from capdet.scorenet import ModelParams
from capdet.textgraph import LabelSet
from capdet.trainer import batch_step, frozen_loss
from capdet.weakloss import Supervision


# OpenBLAS kernels on which run_gradient_check(trials=20) gives the pinned
# value; SandyBridge and Prescott, which lack FMA, round it differently
RECORDED_KERNELS = ("SkylakeX", "Haswell", "Zen")


def relative(a, b):
    """The check's own measure: |a - b| / max(1, |a|, |b|)."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def analytic_step(params, batch, labels, config):
    """The supervision, training-step report, frozen pseudo-labels and parameter gradient of a trial's problem."""
    sup = scene_supervision(labels, params, config)
    near = oicr.overlap_masks(batch.boxes, config.tau, batch.valid)
    return (sup, *batch_step(params, batch, sup, near, config))


def repeated(valid, sup, pseudo, copies):
    """valid, sup and pseudo for copies of their N scenes one after another: the layout of a trial's probes."""
    picks = np.tile(np.arange(len(valid)), copies)
    classes, pairs = (np.tile(np.arange(n), copies) for n in (sup.classes.size, sup.pair_classes.size))
    frozen = PseudoLabels(pseudo.labels[picks], pseudo.weights[picks], pseudo.seeds[:, classes], pseudo.coupled[:, pairs])
    return valid[picks], Supervision(sup.positive[picks], sup.pairs[picks]), frozen


def shifted_copy(params, rng):
    """The same layout as params, every parameter moved by a standard normal draw."""
    other = ModelParams(params.feature_dim, params.class_names, params.category_values, params.num_heads)
    other.flat[:] = params.flat + rng.normal(0.0, 1.0, size=params.flat.size)
    return other


class TestRandomProblem:
    def test_within_stated_bounds(self):
        for trial in range(30):
            rng = np.random.default_rng([7, trial])
            params, batch, labels, config = gradcheck._random_problem(rng)
            assert 4 <= params.feature_dim <= 16
            assert batch.valid.shape[0] == 1 and batch.valid.all()
            assert 2 <= batch.valid.shape[1] <= 8
            assert 2 <= params.num_classes <= 4
            assert 1 <= params.num_heads <= 3
            assert labels.objects
            assert all(0 <= c < params.num_classes for c in labels.objects)

    def test_deterministic_per_trial(self):
        a = gradcheck._random_problem(np.random.default_rng([7, 3]))
        b = gradcheck._random_problem(np.random.default_rng([7, 3]))
        assert np.array_equal(a[0].flat, b[0].flat)
        assert np.array_equal(a[1].features, b[1].features)
        assert a[2].objects == b[2].objects


class TestComposedLoss:
    def test_matches_scene_loss_with_frozen_pseudos(self):
        rng = np.random.default_rng([11, 0])
        params, batch, labels, config = gradcheck._random_problem(rng)
        sup, report, pseudo, _ = analytic_step(params, batch, labels, config)
        z = scorenet.logits(params, batch)
        assert report.l_total.shape == (1,)
        assert np.array_equal(gradcheck.composed_loss(params, z, batch.valid, sup, config, pseudo), report.l_total)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), em=st.booleans(), unlabeled=st.booleans())
    def test_each_slice_is_the_scene_loss(self, seed, n, em, unlabeled):
        # n parameter sets over one scene: scene i of the batch of their
        # logits scores as the lone scene does under parameter set i
        rng = np.random.default_rng(seed)
        params, batch, labels, config = gradcheck._random_problem(rng)
        if em:
            config = dataclasses.replace(config, loss_mode="em", lambda2=0.0)
        if unlabeled:
            labels = LabelSet()
        sup, _, pseudo, _ = analytic_step(params, batch, labels, config)
        others = [shifted_copy(params, rng) for _ in range(n)]
        z = np.concatenate([scorenet.logits(other, batch) for other in others])
        valid, copies, frozen = repeated(batch.valid, sup, pseudo, n)
        values = gradcheck.composed_loss(params, z, valid, copies, config, frozen)
        batched, batched_gradient = frozen_loss(scorenet.head_scores(params, z, valid), copies, config, frozen)
        grad, grad_image = batched_gradient()
        # the value stages alone give the bits of both stages run together
        assert np.array_equal(values, batched.l_total)
        for i, other in enumerate(others):
            report, gradient = frozen_loss(scorenet.forward(other, batch), sup, config, pseudo)
            one_grad, one_grad_image = gradient()
            assert np.array_equal(values[i : i + 1], report.l_total)
            assert np.array_equal(batched.l_total[i : i + 1], report.l_total)
            assert np.array_equal(grad[i : i + 1], one_grad)
            assert np.array_equal(grad_image[i : i + 1], one_grad_image)

    def test_probe_stack_gets_no_gradient(self, monkeypatch):
        # a trial's 160 probes (80 coordinates) on a three-head problem with m = 8: every
        # gradient stage would allocate an array like scores.heads, the value stages none
        rng = np.random.default_rng([11, 3])
        params, batch, labels, config = gradcheck._random_problem(rng)
        sup, _, pseudo, _ = analytic_step(params, batch, labels, config)
        assert (params.num_heads, batch.valid.shape, sup.pair_classes.size) == (3, (1, 8), 1)
        z = scorenet.logits(params, batch)
        probes = z + rng.normal(0.0, 1e-3, size=(160,) + z.shape[1:])
        valid, copies, frozen = repeated(batch.valid, sup, pseudo, 160)
        scores = scorenet.head_scores(params, probes, valid)
        # scored before tracing starts, so the trace holds the loss stages alone
        monkeypatch.setattr(scorenet, "head_scores", lambda *args, **kwargs: scores)
        tracemalloc.start()
        try:
            values = gradcheck.composed_loss(params, probes, valid, copies, config, frozen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (160,)
        assert peak < scores.heads.nbytes


class TestCheckOnce:
    def test_leaves_params_bit_identical(self):
        rng = np.random.default_rng([11, 1])
        params, batch, labels, config = gradcheck._random_problem(rng)
        before = params.flat.copy()
        gradcheck.check_once(params, batch, labels, config, rng, coords_per_trial=1000, step=1e-5)
        assert params.flat.tobytes() == before.tobytes()


class TestMatchesReference:
    def test_stacked_probes_match_per_probe_loop(self):
        seed, coords_per_trial, step = 20240601, 80, 1e-5
        worst_stacked = worst_loop = 0.0
        for trial in range(20):
            # the draws check_once makes, so the sample is the one it checks
            rng = np.random.default_rng([seed, trial])
            params, batch, labels, config = gradcheck._random_problem(rng)
            coords = rng.choice(params.flat.size, size=coords_per_trial, replace=False)
            sup, _, pseudo, analytic = analytic_step(params, batch, labels, config)
            analytic = analytic[params.checkpoint_order[coords]]
            stacked = gradcheck.numeric_gradient(params, batch, sup, config, pseudo, coords, step)
            loop = reference.numeric_gradient(params, batch, sup, config, pseudo, coords, step)
            assert relative(stacked, loop).max() < 1e-8
            worst_stacked = max(worst_stacked, relative(analytic, stacked).max())
            worst_loop = max(worst_loop, relative(analytic, loop).max())
        assert worst_stacked < 1e-4
        assert worst_loop < 1e-4
        result = gradcheck.run_gradient_check(trials=20, seed=seed, coords_per_trial=coords_per_trial, step=step)
        assert result.max_rel_error == worst_stacked


@pytest.fixture(scope="module")
def workload_records():
    """The records the benchmark's gradcheck workload hashes at seed 0."""
    records = []
    for call in range(10):
        r = gradcheck.run_gradient_check(trials=10, seed=call, coords_per_trial=80)
        records.append(
            {
                "trials": r.trials,
                "coords_checked": r.coords_checked,
                "max_rel_error": r.max_rel_error,
                "worst_trial": r.worst_trial,
                "worst_coord": r.worst_coord,
            }
        )
    return records


class TestRunGradientCheck:
    def test_small_run_passes(self):
        result = gradcheck.run_gradient_check(trials=5, seed=20240601, coords_per_trial=20)
        assert result.trials == 5
        assert result.coords_checked > 0
        assert result.max_rel_error < 1e-4
        assert result.worst_coord != ""
        assert result.elapsed_seconds > 0

    def test_deterministic(self):
        a = gradcheck.run_gradient_check(trials=3, seed=5, coords_per_trial=10)
        b = gradcheck.run_gradient_check(trials=3, seed=5, coords_per_trial=10)
        assert a.max_rel_error == b.max_rel_error
        assert a.worst_trial == b.worst_trial
        assert a.worst_coord == b.worst_coord

    def test_pinned_result(self):
        # what no BLAS kernel changes: the coordinates checked, and an error
        # far below the tolerance; its last bits follow the matmul kernel
        result = gradcheck.run_gradient_check(trials=20, seed=20240601, coords_per_trial=80)
        assert result.coords_checked == 1600
        assert result.max_rel_error < 1e-9

    def test_pinned_value_on_recorded_kernels(self):
        # coordinates are drawn and named in checkpoint order, so the result
        # does not depend on how the parameters are laid out in memory
        config = openblas_config()
        if config is None or not set(RECORDED_KERNELS) & set(config.split()):
            pytest.skip(f"value recorded on the OpenBLAS kernels {', '.join(RECORDED_KERNELS)}; this build: {config}")
        result = gradcheck.run_gradient_check(trials=20, seed=20240601, coords_per_trial=80)
        assert result.max_rel_error == 3.267314196975235e-10
        assert (result.worst_trial, result.worst_coord, result.coords_checked) == (18, "object[1].weight[13]", 1600)

    def test_workload_problems_pass(self, workload_records):
        # the benchmark's gradcheck workload: ten calls of ten trials, seeds 0-9, 80 coordinates each
        assert [r["coords_checked"] for r in workload_records] == [800, 800, 800, 800, 770, 800, 792, 780, 800, 800]
        assert max(r["max_rel_error"] for r in workload_records) < 1e-9

    def test_workload_problems_pinned_on_recorded_kernels(self, workload_records):
        # the sha256 the benchmark records for these results at seed 0
        config = openblas_config()
        if config is None or not set(RECORDED_KERNELS) & set(config.split()):
            pytest.skip(f"value recorded on the OpenBLAS kernels {', '.join(RECORDED_KERNELS)}; this build: {config}")
        digest = hashlib.sha256(json.dumps(workload_records, sort_keys=True).encode()).hexdigest()
        assert digest == "7b5310e15f083468853abfb9ea71f12b6294cd6a0177951009b520267c1abd9a"

    def test_one_overlap_mask_per_trial(self, monkeypatch):
        calls = []
        original = oicr.iou_matrix
        monkeypatch.setattr(oicr, "iou_matrix", lambda *args: calls.append(args) or original(*args))
        gradcheck.run_gradient_check(trials=3, seed=5, coords_per_trial=40)
        assert len(calls) == 3

    def test_one_loss_evaluation_per_trial(self, monkeypatch):
        # every probe of a trial is scored in one call; per-probe evaluation would multiply this
        calls = []
        original = gradcheck.composed_loss

        def spy(*args):
            calls.append(args[1].shape)
            return original(*args)

        monkeypatch.setattr(gradcheck, "composed_loss", spy)
        gradcheck.run_gradient_check(trials=4, seed=3, coords_per_trial=80)
        assert len(calls) == 4
        assert all(shape[0] == 160 for shape in calls)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_is_the_worst(self, bad, monkeypatch):
        original = scorenet.param_gradients
        calls = []

        def broken(*args):
            grad = original(*args)
            calls.append(None)
            if len(calls) == 2:
                grad[0] = bad  # packed[0, 0], the first weight of object head 0
            return grad

        monkeypatch.setattr(scorenet, "param_gradients", broken)
        result = gradcheck.run_gradient_check(trials=4, seed=3, coords_per_trial=10**6)
        assert not np.isfinite(result.max_rel_error)
        assert (result.worst_trial, result.worst_coord) == (1, "object[0].weight[0]")
