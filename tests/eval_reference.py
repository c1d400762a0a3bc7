"""Evaluation one scene at a time: infer a scene, match its detections, move on.

trainer.evaluate packs scenes into padded chunks and infers, suppresses
and matches a whole chunk at once. This loop is the per-scene path it
replaced, kept only as a reference: one matmul, one NMS call and one IoU
matrix per scene, with the same score floor, GT ids, CorLoc rule and
detection order fed to average_precision.
"""

import numpy as np

from capdet import scorenet
from capdet.geometry import iou_matrix, nms
from capdet.trainer import IOU_THRESHOLD, NumericalError, average_precision


def infer_scene(params, regions, config):
    """One scene's detections as parallel (region, class, score) arrays, class by class."""
    w = params.packed
    # at least two rows, as trainer.SceneBatch.pack pads a batch: numpy multiplies a
    # one-row matrix through gemv, which rounds otherwise than gemm does; and
    # every column, since BLAS rounds a column by the width of its product
    x = np.zeros((max(2, regions.size), regions.features.shape[1]))
    x[: regions.size] = regions.features
    with np.errstate(all="ignore"):
        z = (x @ w[:-1] + w[-1])[: regions.size, params.object_cols].reshape(regions.size, params.num_heads, -1)
        heads = scorenet.softmax_rows(z, out=np.empty(z.shape))
    if not np.isfinite(heads).all():
        raise NumericalError("non-finite object scores")
    mean_scores = heads[:, :, : params.num_classes].mean(axis=1)
    classes, rows = nms(regions.boxes, mean_scores, config.nms_threshold).T
    scores = mean_scores[rows, classes]
    keep = scores >= config.score_floor
    return rows[keep], classes[keep], scores[keep]


def evaluate_loop(params, scenes, config, infer=infer_scene):
    """trainer.evaluate's metrics dict, one scene at a time through infer(params, regions, config)."""
    num_classes = params.num_classes
    det_classes = [np.zeros(0, dtype=int)]
    det_scores = [np.zeros(0)]
    det_matches = [np.zeros(0, dtype=int)]
    gt_counts = np.zeros(num_classes, dtype=int)
    top_hits = np.zeros(num_classes)
    top_total = np.zeros(num_classes)

    for scene in scenes:
        try:
            rows, classes, scores = infer(params, scene.proposals, config)
        except NumericalError as e:
            raise NumericalError(f"scene {scene.image_id!r}: {e}") from None
        gt_classes = np.array([g.class_index for g in scene.gt], dtype=int)
        overlaps = iou_matrix(scene.proposals.boxes[rows], np.reshape([g.box for g in scene.gt], (-1, 4)))
        # IoU with GT boxes of the detection's own class, 0 elsewhere; the
        # trailing zero column keeps argmax defined in a scene without GT
        same_class = classes[:, None] == gt_classes
        own = np.concatenate([np.where(same_class, overlaps, 0.0), np.zeros((len(rows), 1))], axis=1)
        hit = own.max(axis=1) >= IOU_THRESHOLD
        # GT boxes of earlier scenes shift the ids, so ids are unique across scenes
        det_matches.append(np.where(hit, gt_counts.sum() + own.argmax(axis=1), -1))
        det_classes.append(classes)
        det_scores.append(scores)
        scene_counts = np.bincount(gt_classes, minlength=num_classes)
        gt_counts += scene_counts
        top_total += scene_counts > 0
        # CorLoc reads each class's top-scoring detection, the first on ties
        by_score = np.lexsort((-scores, classes))
        _, first = np.unique(classes[by_score], return_index=True)
        top = by_score[first]
        top_hits[classes[top[hit[top]]]] += 1

    classes, scores, matches = (np.concatenate(parts) for parts in (det_classes, det_scores, det_matches))
    present = np.flatnonzero(gt_counts).tolist()
    per_class_ap = {
        params.class_names[c]: average_precision(scores[classes == c], matches[classes == c], int(gt_counts[c]))
        for c in present
    }
    per_class_corloc = {params.class_names[c]: float(top_hits[c] / top_total[c]) for c in present}
    mean_ap = float(np.mean([per_class_ap[params.class_names[c]] for c in present])) if present else 0.0
    corloc = float(np.mean([per_class_corloc[params.class_names[c]] for c in present])) if present else 0.0
    return {
        "per_class_ap": per_class_ap,
        "map": mean_ap,
        "per_class_corloc": per_class_corloc,
        "corloc": corloc,
        "num_scenes": len(scenes),
    }
