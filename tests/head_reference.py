"""Per-head score network: one affine map and one softmax per head and per category.

The score network packs every head into one (d, P) map. These loops
compute the same outputs and parameter gradients the unpacked way, one
named block of ``iter_param_arrays`` at a time, and are kept only as a
reference to check the packed forward and backward against.
"""

import numpy as np

from capdet.scorenet import ModelParams, Scores, iter_param_arrays
from capdet.trainer import SceneBatch


def _softmax(z, axis):
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _maps(params):
    """name -> (weight, bias) views into params.flat, one per block."""
    arrays = dict(iter_param_arrays(params))
    return {name[: -len(".weight")]: (w, arrays[name[: -len("weight")] + "bias"])
            for name, w in arrays.items() if name.endswith(".weight")}


def packed_scores(objects, attributes, per_region, image_level):
    """One-scene Scores (N = 1) holding per-head (m, C + 1) object and (m, V) attribute arrays in the packed column order.

    Only the evidence product matters to the losses, so the gate carries
    per_region and the region distribution is all ones.
    """
    per_region = np.asarray(per_region, dtype=float)[None]
    heads = np.concatenate([*objects, *attributes], axis=1)[None]
    image_level = np.asarray(image_level, float)[None]
    valid = np.ones(heads.shape[:2], dtype=bool)
    return Scores(heads, len(objects), per_region, np.ones_like(per_region), per_region, image_level, valid)


def lone_batch(boxes, features):
    """One scene's proposal boxes (m, 4) and features (m, d) as a one-scene padded batch."""
    features = np.asarray(features, dtype=float)
    return SceneBatch(("scene",), features[None], np.asarray(boxes, dtype=float)[None], np.ones((1, len(features)), bool))


def loop_forward(params, x):
    """Per-head object scores, per-head (m, V) attribute scores, gate, region_dist, per_region, image_level."""
    maps = _maps(params)

    def apply(name):
        weight, bias = maps[name]
        return x @ weight + bias

    objects = [_softmax(apply(f"object[{k}]"), 1) for k in range(params.num_heads)]
    attributes = [
        np.concatenate(
            [np.empty((len(x), 0))] + [_softmax(apply(f"attribute[{k}][{cat}]"), 1) for cat in params.category_values],
            axis=1,
        )
        for k in range(params.num_heads)
    ]
    gate = _sigmoid(apply("mid_cls"))
    region_dist = _softmax(apply("mid_det"), 0)
    per_region = gate * region_dist
    return objects, attributes, gate, region_dist, per_region, _sigmoid(per_region.sum(axis=0))


def loop_gradients(params, x, grad_objects, grad_attributes, grad_image):
    """Flat gradient of sum(grad * scores) over loop_forward's outputs, one block at a time."""
    objects, attributes, gate, region_dist, _, y = loop_forward(params, x)
    out = ModelParams(params.feature_dim, params.class_names, params.category_values, params.num_heads)
    maps = _maps(out)

    def backprop(name, dz):
        weight, bias = maps[name]
        weight[:] = x.T @ dz
        bias[:] = dz.sum(axis=0)

    def softmax_backward(s, g, axis):
        return s * (g - (g * s).sum(axis=axis, keepdims=True))

    for k in range(params.num_heads):
        backprop(f"object[{k}]", softmax_backward(objects[k], grad_objects[k], 1))
        for cat, cols in params.category_slices.items():
            backprop(f"attribute[{k}][{cat}]", softmax_backward(attributes[k][:, cols], grad_attributes[k][:, cols], 1))
    d_per_region = grad_image * y * (1.0 - y)
    backprop("mid_cls", d_per_region * region_dist * gate * (1.0 - gate))
    backprop("mid_det", softmax_backward(region_dist, d_per_region * gate, 0))
    return out.flat
