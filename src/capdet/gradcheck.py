"""Finite-difference verification of the analytic parameter gradients.

The objective checked is the full composed training loss at a point:
evidence term + lambda1 * MIL + lambda2 * coupled + refinement terms,
with the refinement supervision frozen at that point. Freezing matches
training semantics, where seeds, propagated labels, and their weights
are constants of the step; the maxima inside the MIL and coupled terms
stay live, since they are genuinely part of the loss surface and are
differentiable almost everywhere.

Each trial draws a small random model, a random scene of proposals as a
one-scene padded batch (trainer.SceneBatch, N = 1), and random labels.
The analytic side is trainer.batch_step, the training step itself, whose
gradient comes from scorenet.param_gradients. Freezing leaves the loss a
function of the packed map's logits z = x @ W + b alone, so every probe
is a rank-one shift of one logit array: moving weight (r, j) by h moves
only column j of z, by h * x[:, r], and moving bias j moves it by h. A
trial's 2n probes, plus and minus h on each of n sampled coordinates, are
therefore 2n shifted copies of the batch's scenes: one (2n * N, m, P)
batch scored in one call of trainer.frozen_loss, the training step's
loss, against its supervision and pseudo-labels tiled 2n times. A probe
needs its loss value only, so the gradient stage frozen_loss returns is
never run. No parameter is touched and no second matmul runs; in exact
arithmetic each probe's loss is the loss at the bumped parameters, and
only rounding differs (about eps * |L| / h in the derivative).

Each trial compares the analytic gradient against central differences on a
coordinate sample, and reports the worst relative error, measured as

    |analytic - numeric| / max(1, |analytic|, |numeric|)

A non-finite error is the worst of all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from . import oicr, scorenet, weakloss
from .fields import NON_NEGATIVE, Rule, check_settings, settings_owner
from .oicr import PseudoLabels
from .scorenet import ModelParams
from .textgraph import LabelSet
from .trainer import SceneBatch, TrainConfig, batch_step, frozen_loss
from .weakloss import Supervision

AT_LEAST_ONE = Rule(lambda v: v >= 1, "be at least 1")


@dataclass
class GradCheckResult:
    trials: int
    coords_checked: int
    max_rel_error: float
    worst_trial: int
    worst_coord: str
    elapsed_seconds: float


def _random_problem(rng: np.random.Generator) -> tuple[ModelParams, SceneBatch, LabelSet, TrainConfig]:
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
    batch = SceneBatch(("trial",), rng.normal(0.0, 1.0, size=(1, m, d)), boxes[None], np.ones((1, m), dtype=bool))

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
    return params, batch, labels, config


def composed_loss(
    params: ModelParams,
    z: np.ndarray,
    valid: np.ndarray,
    sup: Supervision,
    config: TrainConfig,
    pseudo: PseudoLabels,
) -> np.ndarray:
    """The composed loss (N,) of logits z (N, m, P) with frozen refinement supervision: value stages only."""
    # supervision without pairs reads no attribute score, so, as in a training step, none is computed
    scores = scorenet.head_scores(params, z, valid, attributes=sup.pair_classes.size > 0)
    return frozen_loss(scores, sup, config, pseudo)[0].l_total


def numeric_gradient(
    params: ModelParams,
    batch: SceneBatch,
    sup: Supervision,
    config: TrainConfig,
    pseudo: PseudoLabels,
    coords: np.ndarray,
    step: float,
) -> np.ndarray:
    """Central differences of the batch's summed loss at coords (checkpoint order), every probe scored in one batch."""
    z = scorenet.logits(params, batch)
    # entry (row, col) of the packed map scales column col of z by x[..., row]; the bias row is all ones
    rows, cols = np.divmod(params.checkpoint_order[coords], z.shape[-1])
    x = np.concatenate([batch.features, np.ones(batch.valid.shape + (1,))], axis=-1)
    shift = step * np.moveaxis(x[..., rows], -1, 0)
    probes = np.tile(z, (2, len(coords), 1, 1, 1))
    probe = np.arange(len(coords))
    probes[0, probe, ..., cols] += shift
    probes[1, probe, ..., cols] -= shift
    # probe i is the batch's scenes again, scenes i * N to (i + 1) * N, with their supervision
    copies = 2 * len(coords)
    picks = np.tile(np.arange(len(z)), copies)
    sup = Supervision(sup.positive[picks], sup.pairs[picks])
    seeds, coupled = np.tile(pseudo.seeds, copies), np.tile(pseudo.coupled, (1, copies, 1))
    pseudo = PseudoLabels(pseudo.labels[picks], pseudo.weights[picks], seeds, coupled)
    values = composed_loss(params, probes.reshape((-1,) + z.shape[1:]), batch.valid[picks], sup, config, pseudo)
    hi, lo = values.reshape(2, len(coords), -1).sum(axis=-1)
    return (hi - lo) / (2.0 * step)


def check_once(
    params: ModelParams,
    batch: SceneBatch,
    labels: LabelSet,
    config: TrainConfig,
    rng: np.random.Generator,
    coords_per_trial: int,
    step: float,
) -> tuple[float, str]:
    """Max relative error over a coordinate sample for one problem instance.

    Coordinates are numbered in checkpoint order; params is left as it
    was. A NaN error is the worst, the first of several wins.
    """
    sup = weakloss.compile_supervision([labels], params.num_classes, params.value_columns, pairs=config.attributes_enabled)
    near = oicr.overlap_masks(batch.boxes, config.tau, batch.valid)
    _, pseudo, analytic = batch_step(params, batch, sup, near, config)
    size = params.flat.size
    if coords_per_trial >= size:
        coords = np.arange(size)
    else:
        coords = rng.choice(size, size=coords_per_trial, replace=False)
    numeric = numeric_gradient(params, batch, sup, config, pseudo, coords, step)
    exact = analytic[params.checkpoint_order[coords]]
    errors = np.abs(exact - numeric) / np.maximum(np.maximum(np.abs(exact), np.abs(numeric)), 1.0)
    worst = int(np.argmax(errors))
    # name only the worst coordinate, such as object[1].weight[13]
    coord = int(coords[worst])
    for name, arr in scorenet.iter_param_arrays(params):
        if coord < arr.size:
            return float(errors[worst]), f"{name}[{coord}]"
        coord -= arr.size
    return float(errors[worst]), ""


@settings_owner
def run_gradient_check(
    trials: Annotated[int, AT_LEAST_ONE] = 100,
    seed: Annotated[int, NON_NEGATIVE] = 20240601,
    coords_per_trial: Annotated[int, AT_LEAST_ONE] = 80,
    step: Annotated[float, Rule(lambda v: np.isfinite(v) and v > 0, "be finite and positive")] = 1e-5,
) -> GradCheckResult:
    """The worst relative error over trials; bad arguments are a ValueError.

    Overflow at a huge step surfaces as a non-finite error, not as numpy
    warnings.
    """
    check_settings(run_gradient_check, locals())
    start = time.monotonic()
    results = []
    checked = 0
    with np.errstate(all="ignore"):
        for trial in range(trials):
            rng = np.random.default_rng([seed, trial])
            params, batch, labels, config = _random_problem(rng)
            results.append(check_once(params, batch, labels, config, rng, coords_per_trial, step))
            checked += min(coords_per_trial, params.flat.size)
    # argmax: a NaN error wins, and so does the first of equal errors
    worst_trial = int(np.argmax([err for err, _ in results]))
    worst, worst_coord = results[worst_trial]
    return GradCheckResult(
        trials=trials,
        coords_checked=checked,
        max_rel_error=worst,
        worst_trial=worst_trial,
        worst_coord=worst_coord,
        elapsed_seconds=time.monotonic() - start,
    )
