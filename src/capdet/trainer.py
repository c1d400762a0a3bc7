"""Training, inference, and evaluation for the caption-supervised detector.

Training is plain adaptive-gradient descent over per-scene losses: the
image-evidence term, the first head's MIL and coupled terms, and one
refinement term per head. Each scene's caption labels are compiled once,
before the first step, into the Supervision every loss reads. Setting
lambda2 to zero compiles them without attribute pairs, which removes
every attribute-dependent computation, including the coupled refinement
terms that would otherwise feed gradients into later object heads; that
is the exact-match baseline, and the two spellings of it (loss_mode="em",
lambda2=0) are required to produce identical checkpoints.

Inference runs only the object heads, averages the refinement heads'
class scores, drops the background column, and applies per-class NMS
with a score floor; a detection names its proposal's row, not a box.
Evaluation reports all-point average precision at IoU 0.5 per class,
their mean over classes present in the ground truth, and CorLoc. It
computes one IoU matrix per scene, proposals against ground-truth
boxes, and both AP matching and CorLoc read rows of it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, get_type_hints

import numpy as np

from . import oicr, scorenet, weakloss
from .geometry import iou_matrix, nms
from .scorenet import ModelParams, RegionSet
from .synthbench import SyntheticScene
from .textgraph import AttributeRegistry, LabelSet, Vocabulary, extract_labels
from .weakloss import LossReport, LossWeights, Supervision


class NumericalError(RuntimeError):
    """Training produced a non-finite loss and cannot continue."""


LOSS_MODES = ("em", "em+sg")


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
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1 or self.steps < 1 or self.num_heads < 1:
            raise ValueError("batch_size, steps, and num_heads must be positive")
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

    def loss_weights(self) -> LossWeights:
        return LossWeights(lambda1=self.lambda1, lambda2=self.lambda2)

    @staticmethod
    def field_types() -> dict[str, type]:
        return dict(get_type_hints(TrainConfig))

    @staticmethod
    def from_mapping(values: Mapping[str, object]) -> "TrainConfig":
        known = TrainConfig.field_types()
        unknown = sorted(set(values) - set(known))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        coerced: dict[str, object] = {}
        for key, raw in values.items():
            target = known[key]
            if isinstance(raw, str):
                if target is int:
                    coerced[key] = int(raw)
                elif target is float:
                    coerced[key] = float(raw)
                else:
                    coerced[key] = raw
            else:
                coerced[key] = raw
        if "loss_mode" in coerced and "lambda2" not in coerced and coerced["loss_mode"] == "em":
            coerced["lambda2"] = 0.0
        if "lambda2" in coerced and "loss_mode" not in coerced and float(coerced["lambda2"]) == 0.0:
            coerced["loss_mode"] = "em"
        return TrainConfig(**coerced)  # type: ignore[arg-type]


@dataclass
class Detection:
    region: int  # row of the scene's proposal boxes
    class_index: int
    score: float


class Adagrad:
    """Accumulate squared gradients; scale each step by 1 / (sqrt(accum) + eps)."""

    def __init__(self, size: int, learning_rate: float, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.eps = eps
        self.accum = np.zeros(size)

    def step(self, params_flat: np.ndarray, grad_flat: np.ndarray) -> None:
        """Update params_flat in place."""
        self.accum += grad_flat * grad_flat
        params_flat -= self.learning_rate * grad_flat / (np.sqrt(self.accum) + self.eps)


def compile_labels(labels: LabelSet, params: ModelParams, config: TrainConfig) -> Supervision:
    """A scene's supervision for params; the exact-match baseline compiles no attribute pairs."""
    return weakloss.compile_supervision(
        labels, params.num_classes, params.value_columns, pairs=config.attributes_enabled
    )


def scene_loss(
    params: ModelParams,
    regions: RegionSet,
    sup: Supervision,
    config: TrainConfig,
    pseudo: oicr.PseudoLabels | None = None,
) -> tuple[LossReport, oicr.PseudoLabels | None, scorenet.Scores]:
    """The per-scene loss, its refinement supervision (reused if given), and forward's scores."""
    scores = scorenet.forward(params, regions)
    if pseudo is None:
        pseudo = oicr.build_pseudo_labels(scores, sup, regions.boxes, config.tau)
    values, ref_grad = oicr.refinement_terms(scores, pseudo)
    report = weakloss.total_loss(scores, sup, config.loss_weights(), oicr_values=values, oicr_grads=ref_grad)
    return report, pseudo, scores


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
    loss aborts immediately, naming the offending scene.
    """
    if not scenes:
        raise ValueError("cannot train on an empty dataset")
    feature_dim = scenes[0].proposals.features.shape[1]
    category_values = {cat: tuple(registry.values[cat]) for cat in registry.categories}
    params = scorenet.init_params(
        feature_dim=feature_dim,
        class_names=vocab.class_names,
        category_values=category_values,
        num_heads=config.num_heads,
        seed=config.seed,
    )
    sups = [compile_labels(labels, params, config) for labels in label_scenes(scenes, vocab, registry)]

    optimizer = Adagrad(params.flat.size, config.learning_rate)
    order_rng = np.random.default_rng(config.seed)
    order = order_rng.permutation(len(scenes))
    cursor = 0

    for step in range(config.steps):
        grad_flat = np.zeros_like(params.flat)
        batch_report: dict[str, float] = {"l_obj": 0.0, "l_entang": 0.0, "l_mid": 0.0, "l_total": 0.0}
        batch_oicr = np.zeros(config.num_heads)
        for _ in range(config.batch_size):
            if cursor >= len(order):
                order = order_rng.permutation(len(scenes))
                cursor = 0
            scene = scenes[order[cursor]]
            sup = sups[order[cursor]]
            cursor += 1
            report, _, scores = scene_loss(params, scene.proposals, sup, config)
            if not np.isfinite(report.l_total):
                raise NumericalError(
                    f"non-finite loss at step {step} on scene {scene.image_id!r}: {report.l_total}"
                )
            grad_flat += scorenet.param_gradients(params, scene.proposals, scores, report.grad, report.grad_image)
            batch_report["l_obj"] += report.l_obj
            batch_report["l_entang"] += report.l_entang
            batch_report["l_mid"] += report.l_mid
            batch_report["l_total"] += report.l_total
            batch_oicr += np.asarray(report.l_oicr)
        grad_flat /= config.batch_size
        if not np.isfinite(grad_flat).all():
            raise NumericalError(f"non-finite gradient at step {step}")
        optimizer.step(params.flat, grad_flat)
        if log_sink is not None:
            record = {k: v / config.batch_size for k, v in batch_report.items()}
            record["l_oicr"] = (batch_oicr / config.batch_size).tolist()
            record["step"] = step
            log_sink(record)
    return params


def infer(params: ModelParams, regions: RegionSet, config: TrainConfig) -> list[Detection]:
    """Mean class scores over heads, background dropped, per-class NMS, score floor.

    Only the object heads are evaluated; inference reads no attribute scores.
    """
    num_classes = params.num_classes
    cols = params.object_cols
    z = regions.features @ params.flat[params.weight_index[:, cols]] + params.flat[params.bias_index[cols]]
    heads = scorenet.softmax_rows(z.reshape(len(z), params.num_heads, -1))
    mean_scores = heads[:, :, :num_classes].mean(axis=1)
    detections: list[Detection] = []
    for c in range(num_classes):
        for i in nms(regions.boxes, mean_scores[:, c], config.nms_threshold):
            score = float(mean_scores[i, c])
            if score >= config.score_floor:
                detections.append(Detection(region=i, class_index=c, score=score))
    return detections


def average_precision(
    detections: Sequence[tuple[str, float, int, float]],
    gt_counts: Mapping[str, int],
    iou_threshold: float = 0.5,
) -> float:
    """All-point interpolated AP for one class.

    Detections are (scene id, score, GT index, IoU): the index, among its
    scene's GT boxes of the class, of the first box it overlaps most (-1
    when there is none), and that overlap. gt_counts holds the number of
    those GT boxes per scene. Each GT box can match at most one
    detection, visited in descending score order.
    """
    total_gt = sum(gt_counts.values())
    if total_gt == 0:
        return 0.0
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1], i))
    matched = {k: [False] * n for k, n in gt_counts.items()}
    tp = np.zeros(len(order))
    fp = np.zeros(len(order))
    for rank, i in enumerate(order):
        scene_id, _, best_j, overlap = detections[i]
        if best_j >= 0 and overlap >= iou_threshold and not matched[scene_id][best_j]:
            matched[scene_id][best_j] = True
            tp[rank] = 1.0
        else:
            fp[rank] = 1.0
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(fp)
    recall = tp_cum / total_gt
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    # precision envelope (running max from the right), then the exact
    # area under the recall steps
    envelope = np.maximum.accumulate(precision[::-1])[::-1] if len(order) else precision
    ap = 0.0
    prev_recall = 0.0
    for r in range(len(order)):
        if tp[r] > 0:
            ap += (recall[r] - prev_recall) * envelope[r]
            prev_recall = recall[r]
    return float(ap)


def evaluate(
    params: ModelParams, scenes: Sequence[SyntheticScene], config: TrainConfig
) -> dict:
    """Per-class AP at IoU 0.5 over classes present in GT, their mean, and CorLoc."""
    num_classes = params.num_classes
    per_class_dets: list[list[tuple[str, float, int, float]]] = [[] for _ in range(num_classes)]
    per_class_gt: list[dict[str, int]] = [dict() for _ in range(num_classes)]
    top_hits = np.zeros(num_classes)
    top_total = np.zeros(num_classes)

    for scene in scenes:
        by_class: dict[int, list[Detection]] = {}
        for det in infer(params, scene.proposals, config):
            by_class.setdefault(det.class_index, []).append(det)
        gt_classes = np.array([g.class_index for g in scene.gt], dtype=int)
        # rows are proposals (every detection is one), columns GT boxes
        overlaps = iou_matrix(scene.proposals.boxes, np.reshape([g.box for g in scene.gt], (-1, 4)))
        for c, dets in by_class.items():
            rows = overlaps[[d.region for d in dets]][:, gt_classes == c]
            best = rows.argmax(axis=1).tolist() if rows.size else [-1] * len(dets)
            best_iou = rows.max(axis=1).tolist() if rows.size else [0.0] * len(dets)
            per_class_dets[c] += [(scene.image_id, d.score, j, v) for d, j, v in zip(dets, best, best_iou)]
        for c in np.unique(gt_classes).tolist():
            per_class_gt[c][scene.image_id] = int(np.count_nonzero(gt_classes == c))
            top_total[c] += 1
            dets = by_class.get(c)
            if dets and overlaps[max(dets, key=lambda d: d.score).region, gt_classes == c].max() >= 0.5:
                top_hits[c] += 1

    present = [c for c in range(num_classes) if per_class_gt[c]]
    per_class_ap = {
        params.class_names[c]: average_precision(per_class_dets[c], per_class_gt[c])
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
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")
