import numpy as np

from capdet import gradcheck
from capdet.trainer import compile_labels, scene_loss


class TestRandomProblem:
    def test_within_stated_bounds(self):
        for trial in range(30):
            rng = np.random.default_rng([7, trial])
            params, regions, labels, config = gradcheck._random_problem(rng)
            assert 4 <= params.feature_dim <= 16
            assert 2 <= regions.size <= 8
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
        params, regions, labels, config = gradcheck._random_problem(rng)
        sup = compile_labels(labels, params, config)
        report, pseudo, _ = scene_loss(params, regions, sup, config)
        value = gradcheck.composed_loss(params, regions, sup, config, pseudo)
        assert value == report.l_total


class TestCheckOnce:
    def test_leaves_params_bit_identical(self):
        rng = np.random.default_rng([11, 1])
        params, regions, labels, config = gradcheck._random_problem(rng)
        before = params.flat.copy()
        gradcheck.check_once(params, regions, labels, config, rng, coords_per_trial=1000, step=1e-5)
        assert params.flat.tobytes() == before.tobytes()


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
        # coordinates are drawn and named in checkpoint order, so the result
        # does not depend on how the parameters are laid out in memory
        result = gradcheck.run_gradient_check(trials=20, seed=20240601, coords_per_trial=80)
        assert result.max_rel_error == 3.267314196975235e-10
        assert (result.worst_trial, result.worst_coord, result.coords_checked) == (18, "object[1].weight[13]", 1600)
