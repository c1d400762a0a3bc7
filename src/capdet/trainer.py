"""Training, inference, and evaluation for the caption-supervised detector.

Training is plain adaptive-gradient descent over per-scene losses: the
image-evidence term, the first head's MIL and coupled terms, and one
refinement term per head. Before the first step, train does the work no
parameter changes, and keeps only what the steps read: it compiles the
caption labels into the two Supervision masks scene by scene, parsing
each scene's captions as it compiles them, so one scene's labels are
alive at a time; and it builds every scene's overlap mask, which the
refinement chain reads, over chunks of EVAL_CHUNK scenes of similar
proposal counts with only their boxes padded, keeping the masks as
packed bits in one array. A step takes the next batch_size scenes of one
permutation per epoch, packs them into one padded SceneBatch, unpacks
their overlap masks, slices their caption masks, and runs
batch_step: forward, pseudo-labels, both stages of the losses (values,
then gradients) and backward once over the batch. Forward and backward
multiply each scene over its own rows, so each scene's gradient has the
bits of a one-scene batch's, and the scenes' gradients are added in
batch order.
Setting lambda2 to zero compiles the labels without attribute pairs,
which removes every attribute-dependent computation, including the
coupled refinement terms that would otherwise feed gradients into later
object heads; that is the exact-match baseline, and the two spellings of
it (loss_mode="em", lambda2=0) are required to produce identical
checkpoints. A batch without attribute pairs, which is every baseline
batch, leaves the attribute heads out of forward and backward, where
their gradient would be exactly zero, and seeds no pair in the
refinement chain.

Inference and evaluation run on chunks of EVAL_CHUNK scenes, each packed
into one SceneBatch: proposals padded to the chunk's largest proposal
count (at least two), with a mask of each scene's own rows. Inference
runs the training forward without the attribute heads, so a scene's
scores do not depend on its chunk, averages the refinement heads' class
scores, drops the background column, and applies NMS to every scene and
class of the chunk at once, then a score floor. A chunk's detections are
four parallel arrays: scene, proposal row (not a box), class and score.
They stay arrays through evaluation, which reports all-point average
precision at IoU 0.5 per class, their mean over classes present in the
ground truth, and CorLoc. It pads the split's ground truth once; per
chunk it computes one IoU array, every detection against its own scene's
ground-truth boxes, and matches each detection to a box; AP and CorLoc
then read the split's matches in one pass.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import oicr, scorenet, weakloss
from .fields import whole_file
from .geometry import iou_matrix, nms
from .scorenet import ModelParams
from .synthbench import SyntheticScene
from .textgraph import AttributeRegistry, LabelSet, Vocabulary, extract_labels
from .weakloss import LossReport, Supervision


class NumericalError(RuntimeError):
    """A loss, gradient or score came out non-finite, so the run cannot continue."""


LOSS_MODES = ("em", "em+sg")
LOGGED_LOSSES = ("l_obj", "l_entang", "l_mid", "l_total")  # LossReport fields a step logs, with l_oicr
IOU_THRESHOLD = 0.5  # a detection localises a GT box at this IoU or more, for AP and CorLoc
# scenes per padded evaluation chunk: a chunk's arrays, and so peak memory,
# grow with it, while larger chunks save little more time than 16 does
EVAL_CHUNK = 16


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 2
    steps: int = 2000
    seed: int = 0
    lambda1: float = 0.5
    lambda2: float = 0.01
    loss_mode: str = "em+sg"
    num_heads: int = 3
    tau: float = 0.5
    nms_threshold: float = 0.4
    score_floor: float = 0.05

    def __post_init__(self) -> None:
        for name in ("learning_rate", "lambda1", "lambda2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1 or self.steps < 1 or self.num_heads < 1:
            raise ValueError("batch_size, steps, and num_heads must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be non-negative")
        # the two spellings of the baseline must coincide
        if (self.lambda2 == 0) != (self.loss_mode == "em"):
            raise ValueError(
                f"loss_mode={self.loss_mode!r} conflicts with lambda2={self.lambda2}; "
                "the exact-match baseline is lambda2=0 and vice versa"
            )
        if not 0 < self.nms_threshold <= 1 or not 0 <= self.score_floor < 1:
            raise ValueError("nms_threshold must lie in (0, 1], score_floor in [0, 1)")

    @property
    def attributes_enabled(self) -> bool:
        return self.lambda2 > 0


class Adagrad:
    """Accumulate squared gradients; scale each step by 1 / (sqrt(accum) + EPS)."""

    EPS = 1e-8

    def __init__(self, size: int, learning_rate: float):
        self.learning_rate = learning_rate
        self.accum = np.zeros(size)

    def step(self, params_flat: np.ndarray, grad_flat: np.ndarray) -> None:
        """Update params_flat in place."""
        self.accum += grad_flat * grad_flat
        params_flat -= self.learning_rate * grad_flat / (np.sqrt(self.accum) + self.EPS)


def frozen_loss(
    scores: scorenet.Scores, sup: Supervision, config: TrainConfig, pseudo: oicr.PseudoLabels
) -> tuple[LossReport, Callable[[], tuple[np.ndarray, np.ndarray]]]:
    """The loss of scores against frozen refinement supervision, a value per scene, and its gradient stage.

    The stage returns the gradients with respect to scores.heads and to the image-level scores.
    """
    return weakloss.total_loss(scores, sup, config.lambda1, config.lambda2, oicr.refinement_terms(scores, sup, pseudo))


def batch_step(
    params: ModelParams, batch: SceneBatch, sup: Supervision, near: np.ndarray, config: TrainConfig
) -> tuple[LossReport, oicr.PseudoLabels, np.ndarray]:
    """One step's loss report, refinement supervision and summed parameter gradient over a padded batch.

    near is the batch's oicr.overlap_masks at config.tau.
    """
    # a batch whose captions name no attribute never reads the attribute heads
    scores = scorenet.forward(params, batch, attributes=sup.pair_classes.size > 0)
    pseudo = oicr.build_pseudo_labels(scores, sup, near)
    report, gradient = frozen_loss(scores, sup, config, pseudo)
    return report, pseudo, scorenet.param_gradients(params, batch, scores, *gradient())


def label_scenes(
    scenes: Sequence[SyntheticScene], vocab: Vocabulary, registry: AttributeRegistry
) -> list[LabelSet]:
    return [extract_labels(scene.captions, vocab, registry) for scene in scenes]


def train(
    scenes: Sequence[SyntheticScene],
    vocab: Vocabulary,
    registry: AttributeRegistry,
    config: TrainConfig,
    log_sink: Callable[[dict], None] | None = None,
) -> ModelParams:
    """Run the optimization; deterministic in (scenes, config).

    Scene order is reshuffled per epoch from the config seed. A non-finite
    loss aborts immediately, naming the offending scene; a non-finite
    gradient or parameter after an optimizer step aborts naming the step;
    the steps run without numpy floating-point warnings.
    """
    if not scenes:
        raise ValueError("cannot train on an empty dataset")
    if config.batch_size > len(scenes):
        raise ValueError(f"batch_size must not exceed the split's {len(scenes)} scenes, got {config.batch_size}")
    feature_dim = scenes[0].proposals.features.shape[1]
    category_values = {cat: tuple(registry.values[cat]) for cat in registry.categories}
    params = scorenet.init_params(
        feature_dim=feature_dim,
        class_names=vocab.class_names,
        category_values=category_values,
        num_heads=config.num_heads,
        seed=config.seed,
    )
    # a step's supervision is its scenes' rows; the exact-match baseline compiles no attribute pairs.
    # Each scene's labels are parsed as they are compiled, so only one scene's are ever alive.
    supervision = weakloss.compile_supervision(
        (extract_labels(scene.captions, vocab, registry) for scene in scenes),
        params.num_classes,
        params.value_columns,
        pairs=config.attributes_enabled,
        count=len(scenes),
    )
    # proposals never change, so neither does any scene's overlap mask
    blocks = overlap_blocks(scenes, config.tau)

    optimizer = Adagrad(params.flat.size, config.learning_rate)
    # one permutation per epoch, each drawn when the one before runs out
    order_rng = np.random.default_rng(config.seed)
    order = itertools.chain.from_iterable(map(order_rng.permutation, itertools.repeat(len(scenes))))

    # overflow ends the run through the checks below, with one message and no warnings
    with np.errstate(all="ignore"):
        for step in range(config.steps):
            picks = np.fromiter(itertools.islice(order, config.batch_size), dtype=int, count=config.batch_size)
            batch = SceneBatch.pack([scenes[i] for i in picks])
            sup = Supervision(supervision.positive[picks], supervision.pairs[picks])
            width = batch.valid.shape[1]
            near = np.unpackbits(blocks[picks, :width], axis=-1, count=width).view(bool)
            report, _, grad_flat = batch_step(params, batch, sup, near, config)
            finite = np.isfinite(report.l_total)
            if not finite.all():
                first = int(np.argmin(finite))
                raise NumericalError(
                    f"non-finite loss at step {step} on scene {batch.image_ids[first]!r}: {report.l_total[first]}"
                )
            grad_flat /= config.batch_size
            if not np.isfinite(grad_flat).all():
                raise NumericalError(f"non-finite gradient at step {step}")
            optimizer.step(params.flat, grad_flat)
            if not np.isfinite(params.flat).all():
                raise NumericalError(f"non-finite parameters after step {step}")
            if log_sink is not None:
                record = {key: float(getattr(report, key).sum()) / config.batch_size for key in LOGGED_LOSSES}
                record["l_oicr"] = (report.l_oicr.sum(axis=0) / config.batch_size).tolist()
                record["step"] = step
                log_sink(record)
    return params


@dataclass(frozen=True)
class SceneBatch:
    """Scenes' proposals padded to the batch's largest proposal count M, at least 2.

    Row i of scene n is the scene's own proposal where valid[n, i]; the
    rows past a scene's count have zero features and the unit box, a real
    box, so IoU never divides 0 by 0. M is at least 2 because
    scorenet.logits and scorenet.param_gradients multiply each scene over
    at least two rows: numpy multiplies a one-row matrix through another
    BLAS routine, which rounds differently, so a lone one-proposal scene
    would score otherwise than it does in a batch.
    """

    image_ids: tuple[str, ...]
    features: np.ndarray  # (N, M, d)
    boxes: np.ndarray  # (N, M, 4)
    valid: np.ndarray  # (N, M) bool

    @staticmethod
    def pack(scenes: Sequence[SyntheticScene]) -> "SceneBatch":
        boxes, valid = padded_boxes(scenes)
        dim = scenes[0].proposals.features.shape[1] if scenes else 0
        features = np.zeros(valid.shape + (dim,))
        for n, scene in enumerate(scenes):
            features[n, : scene.proposals.size] = scene.proposals.features
        return SceneBatch(tuple(scene.image_id for scene in scenes), features, boxes, valid)


def padded_boxes(scenes: Sequence[SyntheticScene]) -> tuple[np.ndarray, np.ndarray]:
    """SceneBatch's boxes and valid mask of scenes: their proposal boxes padded with the unit box to M, at least 2."""
    sizes = [scene.proposals.size for scene in scenes]
    width = max([2, *sizes]) if sizes else 0
    boxes = np.empty((len(scenes), width, 4))
    boxes[...] = (0.0, 0.0, 1.0, 1.0)
    for n, scene in enumerate(scenes):
        boxes[n, : sizes[n]] = scene.proposals.boxes
    return boxes, np.arange(width) < np.array(sizes, dtype=int)[:, None]


def overlap_blocks(scenes: Sequence[SyntheticScene], tau: float) -> np.ndarray:
    """Every scene's oicr.overlap_masks at tau as packed bits, in one (S, W, ceil(W / 8)) uint8 array.

    W is the largest proposal count, at least 2. Row i of scene n's mask
    is blocks[n, i], np.packbits of its W cells, so its rows and columns
    past the scene's proposal count are 0 bits, and
    np.unpackbits(blocks[picks, :M], axis=-1, count=M).view(bool) is the
    mask of a batch of those scenes padded to M. The masks are computed
    over chunks of EVAL_CHUNK scenes taken by proposal count, each with
    its boxes padded as SceneBatch pads them, and packed chunk by chunk,
    so no (S, W, W) array is ever made.
    """
    sizes = [scene.proposals.size for scene in scenes]
    width = max([2, *sizes])
    blocks = np.zeros((len(scenes), width, -(-width // 8)), dtype=np.uint8)
    order = np.argsort(sizes, kind="stable")
    for start in range(0, len(order), EVAL_CHUNK):
        picks = order[start : start + EVAL_CHUNK]
        boxes, valid = padded_boxes([scenes[i] for i in picks])
        packed = np.packbits(oicr.overlap_masks(boxes, tau, valid), axis=-1)
        blocks[picks, : packed.shape[1], : packed.shape[2]] = packed
    return blocks


def infer(
    params: ModelParams, batch: SceneBatch, config: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Detections as parallel (scene, region, class, score) arrays.

    Mean class scores over heads, background dropped, NMS per scene and
    class, then the score floor. A scene is an index into the batch and a
    region a row of that scene's proposal boxes; rows come scene by
    scene, class by class, by descending score within a class. Forward
    leaves the attribute heads out; inference reads no attribute scores.
    Non-finite object scores on a scene's own rows raise NumericalError
    naming the first such scene, without a warning.
    """
    with np.errstate(all="ignore"):
        objects = scorenet.forward(params, batch, attributes=False).objects
        mean_scores = objects[..., : params.num_classes].mean(axis=1)
    finite = np.isfinite(objects).all(axis=(1, -1)) | ~batch.valid
    if not finite.all():
        first = np.argmin(finite.all(axis=-1))
        raise NumericalError(f"scene {batch.image_ids[first]!r}: non-finite object scores")
    scenes, classes, rows = nms(batch.boxes, mean_scores, config.nms_threshold, batch.valid).T
    scores = mean_scores[scenes, rows, classes]
    keep = scores >= config.score_floor
    return scenes[keep], rows[keep], classes[keep], scores[keep]


def average_precision(scores: np.ndarray, matches: np.ndarray, num_gt: int) -> float:
    """All-point interpolated AP for one class over num_gt GT boxes.

    matches[i] is the GT box that detection i overlaps most (the first on
    ties) when that overlap is at least IOU_THRESHOLD, and -1 otherwise;
    any id unique across scenes names a box. Detections are visited by
    descending score, in input order on ties, and each GT box matches at
    most one: a detection whose box is already taken is a false positive.
    """
    if num_gt == 0:
        return 0.0
    ranked = matches[np.argsort(-scores, kind="stable")]
    _, first = np.unique(ranked, return_index=True)
    tp = np.zeros(len(ranked), dtype=bool)
    tp[first] = True
    tp &= ranked >= 0
    tp_cum = np.cumsum(tp)
    recall = tp_cum / num_gt
    precision = tp_cum / np.arange(1, len(tp) + 1)
    # precision envelope (running max from the right), then the exact area
    # under the recall steps, added in rank order
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    areas = np.diff(recall[tp], prepend=0.0) * envelope[tp]
    return float(np.cumsum(np.append(0.0, areas))[-1])


def evaluate(
    params: ModelParams, scenes: Sequence[SyntheticScene], config: TrainConfig
) -> dict:
    """Per-class AP at IOU_THRESHOLD over classes present in GT, their mean, and CorLoc.

    Scenes are inferred and matched EVAL_CHUNK at a time, in input order;
    AP and CorLoc then read the whole split's detections at once.
    """
    num_classes = params.num_classes
    # the split's GT boxes, padded with class -1, which no detection has; a box's id is its position in the split
    gt_sizes = np.array([len(scene.gt) for scene in scenes], dtype=int)
    gt_valid = np.arange(gt_sizes.max(initial=1)) < gt_sizes[:, None]
    gt_boxes = np.zeros(gt_valid.shape + (4,))
    gt_classes = np.full(gt_valid.shape, -1)
    gt_boxes[gt_valid] = np.reshape([g.box for scene in scenes for g in scene.gt], (-1, 4))
    gt_classes[gt_valid] = [g.class_index for scene in scenes for g in scene.gt]
    first_ids = np.cumsum(gt_sizes) - gt_sizes

    # (scene, class, score, match) arrays per chunk; an empty first part keeps the concatenation defined without scenes
    parts = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int))]
    for start in range(0, len(scenes), EVAL_CHUNK):
        batch = SceneBatch.pack(scenes[start : start + EVAL_CHUNK])
        chunk_scenes, rows, classes, scores = infer(params, batch, config)
        owners = start + chunk_scenes
        # IoU with GT boxes of the detection's own scene and class, 0 elsewhere
        overlaps = iou_matrix(batch.boxes[chunk_scenes, rows][:, None], gt_boxes[owners])[:, 0]
        own = np.where(classes[:, None] == gt_classes[owners], overlaps, 0.0)
        hit = own.max(axis=1) >= IOU_THRESHOLD
        parts.append((owners, classes, scores, np.where(hit, first_ids[owners] + own.argmax(axis=1), -1)))

    owners, classes, scores, matches = map(np.concatenate, zip(*parts))
    del parts  # the split-wide passes below would otherwise hold every detection twice
    scene_counts = (gt_classes[:, :, None] == np.arange(num_classes)).sum(axis=1)
    gt_counts = scene_counts.sum(axis=0)
    # CorLoc reads each scene's top-scoring detection of each class, the first on ties
    groups = owners * num_classes + classes
    by_score = np.lexsort((-scores, groups))
    _, first = np.unique(groups[by_score], return_index=True)
    top = by_score[first]
    top_hits = np.bincount(classes[top[matches[top] >= 0]], minlength=num_classes)
    top_total = (scene_counts > 0).sum(axis=0)

    present = np.flatnonzero(gt_counts).tolist()
    per_class_ap = {
        params.class_names[c]: average_precision(scores[classes == c], matches[classes == c], int(gt_counts[c]))
        for c in present
    }
    per_class_corloc = {
        params.class_names[c]: float(top_hits[c] / top_total[c]) for c in present
    }
    mean_ap = float(np.mean([per_class_ap[params.class_names[c]] for c in present])) if present else 0.0
    corloc = float(np.mean([per_class_corloc[params.class_names[c]] for c in present])) if present else 0.0
    return {
        "per_class_ap": per_class_ap,
        "map": mean_ap,
        "per_class_corloc": per_class_corloc,
        "corloc": corloc,
        "num_scenes": len(scenes),
    }


def metrics_report(metrics: dict, config: TrainConfig) -> dict:
    report = dict(metrics)
    report["config_echo"] = asdict(config)
    report["seed"] = config.seed
    return report


def write_metrics(path: str | Path, report: Mapping) -> None:
    with whole_file(path, "w") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")
