"""Which package attributes the traced run wraps, and the per-layer metrics it derives.

Each target names the attribute that the calling code looks up at call
time: ``trainer.nms`` and ``trainer.extract_labels`` are the names the
trainer imported, so they are wrapped there, while ``geometry.iou`` is the
name ``nms`` looks up. Counting probes (``kind="count"``) sit on helpers
called hundreds of times per scene.
"""

from __future__ import annotations

import os

import numpy as np

from tracing import Target, Tracer

TARGETS = (
    # oicr: pseudo-label construction and refinement terms
    Target("capdet.oicr", "build_pseudo_labels", "oicr.build_pseudo_labels"),
    Target("capdet.oicr", "seed_and_assign", "oicr.seed_and_assign"),
    Target("capdet.oicr", "attribute_assignments", "oicr.attribute_assignments"),
    Target("capdet.oicr", "refinement_terms", "oicr.refinement_terms"),
    Target("capdet.oicr", "iou_matrix", "oicr.iou_matrix", "count"),
    Target("capdet.oicr", "clamp_prob", "oicr.clamp_prob", "count"),
    # scorenet: forward, backward, parameter copies, checkpoints
    Target("capdet.scorenet", "forward", "scorenet.forward"),
    Target("capdet.scorenet", "param_gradients", "scorenet.param_gradients"),
    Target("capdet.scorenet", "flatten_params", "scorenet.flatten_params"),
    Target("capdet.scorenet", "unflatten_params", "scorenet.unflatten_params"),
    Target("capdet.scorenet", "save_checkpoint", "scorenet.save_checkpoint"),
    Target("capdet.scorenet", "load_checkpoint", "scorenet.load_checkpoint"),
    Target("capdet.scorenet", "softmax_rows", "scorenet.softmax_rows", "count"),
    # weakloss: loss mixing and its terms
    Target("capdet.weakloss", "total_loss", "weakloss.total_loss"),
    Target("capdet.weakloss", "object_mil_loss", "weakloss.object_mil_loss"),
    Target("capdet.weakloss", "entanglement_loss", "weakloss.entanglement_loss"),
    Target("capdet.weakloss", "mid_loss", "weakloss.mid_loss"),
    Target("capdet.weakloss", "clamp_prob", "weakloss.clamp_prob", "count"),
    # geometry: NMS as the trainer calls it, and the scalar IoU inside it
    Target("capdet.trainer", "nms", "geometry.nms"),
    Target("capdet.geometry", "iou", "geometry.iou", "count"),
    # synthbench: generation, rounding, dataset files
    Target("capdet.synthbench", "generate_scene", "synthbench.generate_scene"),
    Target("capdet.synthbench", "round_sig_array", "synthbench.round_sig_array"),
    Target("capdet.synthbench", "write_dataset", "synthbench.write_dataset"),
    Target("capdet.synthbench", "load_dataset", "synthbench.load_dataset"),
    # textgraph: caption parsing as the trainer calls it
    Target("capdet.trainer", "extract_labels", "textgraph.extract_labels"),
    # trainer: the loop, the optimizer, inference and evaluation
    Target("capdet.trainer", "train", "trainer.train"),
    Target("capdet.trainer", "Adagrad.step", "trainer.Adagrad.step"),
    Target("capdet.trainer", "infer", "trainer.infer"),
    Target("capdet.trainer", "evaluate", "trainer.evaluate"),
    Target("capdet.trainer", "average_precision", "trainer.average_precision"),
    # gradcheck: one trial, one loss evaluation
    Target("capdet.gradcheck", "check_once", "gradcheck.check_once"),
    Target("capdet.gradcheck", "composed_loss", "gradcheck.composed_loss"),
)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _unflatten_bytes(args, kwargs, result):
    flat = args[1] if len(args) > 1 else kwargs["flat"]
    return {"bytes": np.asarray(flat).size * 8}  # float64 parameters


def _nms_sizes(args, kwargs, result):
    boxes = args[0] if args else kwargs["boxes"]
    return {"boxes_in": len(boxes), "boxes_kept": len(result)}


# extra quantities read off a wrapped call's arguments and result
MEASURES = {
    "synthbench.write_dataset": _file_bytes,
    "synthbench.load_dataset": _file_bytes,
    "scorenet.unflatten_params": _unflatten_bytes,
    "geometry.nms": _nms_sizes,
}


def _step_summary(intervals_ms: list[float]) -> dict[str, float]:
    """Median and the highest of p99.9/p99/p90 that has at least ten samples beyond it."""
    n = len(intervals_ms)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "samples": 0}
    tail_pct = next((p for p in (99.9, 99.0, 90.0) if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return {
        "p50": float(np.percentile(intervals_ms, 50)),
        "tail": float(np.percentile(intervals_ms, tail_pct)),
        "tail_pct": tail_pct,
        "samples": n,
    }


def layer_metrics(tracer: Tracer, workload, untraced, traced_seconds: float) -> dict[str, float]:
    """Per-layer values of one traced round; layers that did no work read 0."""
    spans = tracer.layer_stats()
    per_root = tracer.tally
    totals: dict[str, float] = {}
    for (_, key), value in per_root.items():
        totals[key] = totals.get(key, 0) + value
    out: dict[str, float] = {}
    for target in TARGETS:
        if target.kind == "span":
            entry = spans.get(target.name, {"calls": 0, "self_ms": 0.0})
            out[f"{target.name}.calls"] = entry["calls"]
            out[f"{target.name}.self_ms"] = entry["self_ms"]
        else:
            out[f"{target.name}.calls"] = totals.get(f"{target.name}.calls", 0)

    def under_train(key: str) -> float:
        return per_root.get(("trainer.train", key), 0)

    scene_steps = workload.scene_steps
    for name in ("scorenet.softmax_rows", "oicr.clamp_prob", "weakloss.clamp_prob"):
        out[f"{name}.calls_per_scene_step"] = (
            under_train(f"{name}.calls") / scene_steps if scene_steps else 0.0
        )
    out["scorenet.unflatten_params.bytes_per_step"] = (
        under_train("scorenet.unflatten_params.bytes") / workload.optimizer_steps
        if workload.optimizer_steps else 0.0
    )
    nms_calls = out["geometry.nms.calls"]
    boxes_in = totals.get("geometry.nms.boxes_in", 0)
    out["geometry.iou.calls_per_nms"] = out["geometry.iou.calls"] / nms_calls if nms_calls else 0.0
    out["geometry.nms.keep_ratio"] = totals.get("geometry.nms.boxes_kept", 0) / boxes_in if boxes_in else 0.0
    out["synthbench.bytes_written"] = totals.get("synthbench.write_dataset.bytes", 0)
    out["synthbench.bytes_read"] = totals.get("synthbench.load_dataset.bytes", 0)

    # step latency comes from the untraced round; the first interval holds
    # train's own set-up (init_params, label_scenes) and is reported apart
    for tag, prefix in (("emsg", "trainer.step_ms"), ("em", "trainer.em_step_ms")):
        first, intervals = untraced.steps_ms.get(tag, (0.0, []))
        summary = _step_summary(intervals)
        out[f"{prefix}.first"] = first
        for key in ("p50", "tail", "tail_pct", "samples"):
            out[f"{prefix}.{key}"] = summary[key]

    for stage, unit in (
        ("train_emsg", "scene_steps"), ("train_em", "scene_steps"), ("eval", "scenes"),
        ("synth", "scenes"), ("ingest", "scenes"), ("gradcheck", "coords"),
    ):
        items, seconds = untraced.stages.get(stage, (0, 0.0))
        out[f"stage.{stage}.{unit}_per_s"] = items / seconds if seconds else 0.0

    for key in (
        "map_emsg", "map_em", "confusable_ap_emsg", "confusable_ap_em", "confusable_ap_gap", "max_rel_error",
    ):
        out[f"quality.{key}"] = untraced.quality.get(key, 0.0)

    out["trace.untraced_s"] = untraced.seconds
    out["trace.traced_s"] = traced_seconds
    out["trace.overhead_s"] = traced_seconds - untraced.seconds
    out["trace.spans"] = len(tracer.spans)
    out["trace.absent_targets"] = len(tracer.absent)
    return out
