"""Finite-difference verification of the analytic parameter gradients.

The objective checked is the full composed training loss at a point:
evidence term + lambda1 * MIL + lambda2 * coupled + refinement terms,
with the refinement supervision frozen at that point. Freezing matches
training semantics, where seeds, propagated labels, and their weights
are constants of the step; the maxima inside the MIL and coupled terms
stay live, since they are genuinely part of the loss surface and are
differentiable almost everywhere.

Each trial draws a small random model, a random region set, and random
labels, compares the analytic gradient against central differences on a
coordinate sample, and reports the worst relative error, measured as

    |analytic - numeric| / max(1, |analytic|, |numeric|)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import scorenet
from .scorenet import ModelParams, RegionSet
from .textgraph import LabelSet
from .trainer import TrainConfig, compile_labels, scene_loss
from .weakloss import Supervision


@dataclass
class GradCheckResult:
    trials: int
    coords_checked: int
    max_rel_error: float
    worst_trial: int
    worst_coord: str
    elapsed_seconds: float


def _random_problem(rng: np.random.Generator) -> tuple[ModelParams, RegionSet, LabelSet, TrainConfig]:
    d = int(rng.integers(4, 17))
    m = int(rng.integers(2, 9))
    num_classes = int(rng.integers(2, 5))
    num_heads = int(rng.integers(1, 4))
    class_names = tuple(f"c{i}" for i in range(num_classes))
    n_cats = int(rng.integers(1, 3))
    category_values = {
        f"cat{a}": tuple(f"v{a}{j}" for j in range(int(rng.integers(2, 4)))) for a in range(n_cats)
    }
    params = scorenet.init_params(d, class_names, category_values, num_heads, seed=int(rng.integers(2**31)))
    # move away from the symmetric init so probabilities spread out
    params.flat[params.checkpoint_order] += rng.normal(0.0, 0.5, size=params.flat.size)

    centers = rng.uniform(0.2, 0.8, size=(m, 2))
    sizes = rng.uniform(0.05, 0.2, size=(m, 2))
    boxes = np.column_stack(
        [centers[:, 0] - sizes[:, 0], centers[:, 1] - sizes[:, 1], centers[:, 0] + sizes[:, 0], centers[:, 1] + sizes[:, 1]]
    )
    features = rng.normal(0.0, 1.0, size=(m, d))
    regions = RegionSet(boxes=boxes, features=features)

    k = int(rng.integers(1, num_classes + 1))
    mentioned = sorted(rng.choice(num_classes, size=k, replace=False).tolist())
    labels = LabelSet(objects=set(int(c) for c in mentioned))
    for c in mentioned:
        if rng.random() < 0.8:
            cat = f"cat{int(rng.integers(n_cats))}"
            val = category_values[cat][int(rng.integers(len(category_values[cat])))]
            labels.attribute_pairs.setdefault(int(c), set()).add((cat, val))

    config = TrainConfig(
        steps=1,
        num_heads=num_heads,
        lambda2=float(rng.choice([0.01, 0.1])),
        tau=float(rng.uniform(0.3, 0.7)),
    )
    return params, regions, labels, config


def composed_loss(
    params: ModelParams, regions: RegionSet, sup: Supervision, config: TrainConfig, pseudo
) -> float:
    report, _, _ = scene_loss(params, regions, sup, config, pseudo=pseudo)
    return report.l_total


def check_once(
    params: ModelParams,
    regions: RegionSet,
    labels: LabelSet,
    config: TrainConfig,
    rng: np.random.Generator,
    coords_per_trial: int,
    step: float,
) -> tuple[float, str]:
    """Max relative error over a coordinate sample for one problem instance.

    Coordinates are numbered in checkpoint order. Probes bump params.flat
    in place and restore it, leaving params unchanged.
    """
    sup = compile_labels(labels, params, config)
    report, pseudo, scores = scene_loss(params, regions, sup, config)
    analytic = scorenet.param_gradients(params, regions, scores, report.grad, report.grad_image)
    flat, order = params.flat, params.checkpoint_order

    if coords_per_trial >= flat.size:
        coords = np.arange(flat.size)
    else:
        coords = rng.choice(flat.size, size=coords_per_trial, replace=False)
    worst, worst_coord = 0.0, -1
    for coord in coords:
        idx = order[coord]
        original = flat[idx]
        flat[idx] = original + step
        hi = composed_loss(params, regions, sup, config, pseudo)
        flat[idx] = original - step
        lo = composed_loss(params, regions, sup, config, pseudo)
        flat[idx] = original
        numeric = (hi - lo) / (2.0 * step)
        denom = max(1.0, abs(analytic[idx]), abs(numeric))
        err = abs(analytic[idx] - numeric) / denom
        if err > worst:
            worst = err
            worst_coord = coord
    # name only the worst coordinate, such as object[1].weight[13]
    for name, arr in scorenet.iter_param_arrays(params):
        if 0 <= worst_coord < arr.size:
            return worst, f"{name}[{worst_coord}]"
        worst_coord -= arr.size
    return worst, ""


def run_gradient_check(
    trials: int = 100,
    seed: int = 20240601,
    coords_per_trial: int = 80,
    step: float = 1e-5,
) -> GradCheckResult:
    start = time.monotonic()
    worst = 0.0
    worst_trial = -1
    worst_coord = ""
    checked = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        params, regions, labels, config = _random_problem(rng)
        err, coord = check_once(params, regions, labels, config, rng, coords_per_trial, step)
        checked += min(coords_per_trial, params.flat.size)
        if err > worst:
            worst, worst_trial, worst_coord = err, trial, coord
    return GradCheckResult(
        trials=trials,
        coords_checked=checked,
        max_rel_error=float(worst),
        worst_trial=worst_trial,
        worst_coord=worst_coord,
        elapsed_seconds=time.monotonic() - start,
    )
