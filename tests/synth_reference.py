"""Loop reference for scene generation: one draw call per value, and no rounding.

The tests compare synthbench.generate_scene against this, bit for bit and
caption for caption, so it stays as literal as possible: every bounded
value comes from its own ``rng.uniform`` call, every proposal's noise from
its own ``rng.standard_normal(d)`` array, and each feature row is its
base plus its scaled noise. No value is rounded, since generation rounds
none. The class, attribute and caption draws are shared with the module,
since the rewrite leaves them as they are.

scenes_digest pins what generation produces in no file format, so a pin
of it holds across changes to the dataset file's encoding.
"""

import hashlib
import json

import numpy as np

from capdet.scorenet import RegionSet
from capdet.synthbench import (
    CaptionFacts,
    GroundTruth,
    SyntheticScene,
    _build_captions,
    _sample_attributes,
    _sample_classes,
)


def sample_gt_box(rng):
    w = float(rng.uniform(0.18, 0.38))
    h = float(rng.uniform(0.18, 0.38))
    x0 = float(rng.uniform(0.35 * w, 1.0 - 1.35 * w))
    y0 = float(rng.uniform(0.35 * h, 1.0 - 1.35 * h))
    return (x0, y0, x0 + w, y0 + h)


def jitter_box(rng, gt, target_iou):
    """Shift a copy of gt so its IoU with gt is exactly target_iou."""
    x_min, y_min, x_max, y_max = gt
    w = x_max - x_min
    h = y_max - y_min
    mode = int(rng.integers(3)) if target_iou >= 0.5 else 0
    if mode == 0:  # shift both axes equally
        alpha = 1.0 - np.sqrt(2.0 * target_iou / (1.0 + target_iou))
        dx = alpha * w * (1 if rng.random() < 0.5 else -1)
        dy = alpha * h * (1 if rng.random() < 0.5 else -1)
    else:  # shift one axis
        alpha = (1.0 - target_iou) / (1.0 + target_iou)
        if mode == 1:
            dx = alpha * w * (1 if rng.random() < 0.5 else -1)
            dy = 0.0
        else:
            dx = 0.0
            dy = alpha * h * (1 if rng.random() < 0.5 else -1)
    return (x_min + dx, y_min + dy, x_max + dx, y_max + dy)


def generate_scene(universe, image_id, stream_key):
    """Build one scene from its own RNG stream; deterministic in the key."""
    config = universe.config
    rng = np.random.default_rng(list(stream_key))
    class_index = {n: i for i, n in enumerate(config.class_names)}

    objects = [
        (name, class_index[name], _sample_attributes(rng, config, name)) for name in _sample_classes(rng, config)
    ]
    present = {name for name, _, _ in objects}
    cooccurring = {name for name in present if config.partners.get(name) in present}

    gt = []
    boxes = []
    features = []
    for name, c_idx, attrs in objects:
        gt_box = sample_gt_box(rng)
        gt.append(GroundTruth(box=gt_box, class_index=c_idx, attributes=list(attrs)))
        base = universe.class_prototypes[c_idx].copy()
        for cat, val in attrs:
            base = base + universe.attribute_prototypes[(cat, val)]
        for j in range(config.jitters_per_gt):
            target = float(rng.uniform(0.55, 0.85)) if j == 0 else float(rng.uniform(0.3, 0.9))
            boxes.append(jitter_box(rng, gt_box, target))
            noise = config.noise_sigma * rng.standard_normal(config.feature_dim)
            features.append(base + noise)
    for _ in range(config.background_boxes):
        w = float(rng.uniform(0.08, 0.25))
        h = float(rng.uniform(0.08, 0.25))
        x0 = float(rng.uniform(0.0, 1.0 - w))
        y0 = float(rng.uniform(0.0, 1.0 - h))
        boxes.append((x0, y0, x0 + w, y0 + h))
        noise = config.noise_sigma * rng.standard_normal(config.feature_dim)
        features.append(universe.background_prototype + noise)

    facts = CaptionFacts()
    captions = _build_captions(rng, config, objects, cooccurring, facts)
    proposals = RegionSet(boxes=np.asarray(boxes, dtype=float), features=np.stack(features))
    return SyntheticScene(image_id=image_id, gt=gt, proposals=proposals, captions=captions), facts


def scenes_digest(scenes):
    """sha256 over each scene's image_id, captions and GT as JSON, then the <f8 bytes of its boxes and features."""
    digest = hashlib.sha256()
    for scene in scenes:
        gt = [[list(g.box), g.class_index, [list(a) for a in g.attributes]] for g in scene.gt]
        digest.update(json.dumps([scene.image_id, scene.captions, gt]).encode())
        digest.update(scene.proposals.boxes.astype("<f8").tobytes())
        digest.update(scene.proposals.features.astype("<f8").tobytes())
    return digest.hexdigest()
