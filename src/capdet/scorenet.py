"""Affine score heads over region descriptors.

One model holds K parallel object heads (softmax over classes plus
background), per-head attribute heads (softmax over each category's
values, the categories side by side in one attribute column space), and
a two-stream image-evidence block: one affine map squashed
per entry by a sigmoid, one turned into a distribution over regions per
class, multiplied elementwise. Summing that product over regions and
applying a sigmoid gives the per-class image score, which therefore
always lies in (0.5, 1).

All parameters live in one flat float64 buffer that the optimizer,
checkpoints and gradient check use directly; every head is an affine view
into it. Its order (iter_param_arrays) is the checkpoint format.

Forward evaluation and the analytic backward pass are paired; the
backward pass reuses forward's softmaxes and is checked against central
finite differences in the test suite rather than trusted by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .geometry import check_boxes

# probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] before any log
PROB_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"capdet-checkpoint-v1\n"


def clamp_prob(p: np.ndarray | float) -> np.ndarray | float:
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cols(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


@dataclass
class Affine:
    weight: np.ndarray  # (d, out)
    bias: np.ndarray  # (out,)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight + self.bias


class ModelParams:
    """All trainable parameters: one flat buffer plus the layout it was built for.

    category_values fixes the column order of every attribute head, and
    class_names fixes the column order of object and evidence heads, so a
    checkpoint is self-describing. Each head's attribute scores are one
    array whose columns hold the categories side by side in that order:
    category_slices gives each category's columns and value_columns maps
    (category, value) to its column. The heads are views into flat:
    writing through either one changes the other.
    """

    def __init__(
        self,
        feature_dim: int,
        class_names: Sequence[str],
        category_values: Mapping[str, Sequence[str]],
        num_heads: int,
        flat: np.ndarray | None = None,
    ):
        if feature_dim < 1:
            raise ValueError(f"feature_dim must be positive, got {feature_dim}")
        if len(class_names) < 1:
            raise ValueError("need at least one class")
        if num_heads < 1:
            raise ValueError(f"need at least one head, got {num_heads}")
        self.feature_dim = d = feature_dim
        self.num_heads = num_heads
        self.class_names = tuple(str(n) for n in class_names)
        self.category_values = {str(c): tuple(str(v) for v in vals) for c, vals in category_values.items()}
        self.category_slices: dict[str, slice] = {}
        self.value_columns: dict[tuple[str, str], int] = {}
        start = 0
        for cat, vals in self.category_values.items():
            self.category_slices[cat] = slice(start, start + len(vals))
            self.value_columns.update({(cat, v): start + j for j, v in enumerate(vals)})
            start += len(vals)
        c = len(self.class_names)
        widths = [c + 1] * num_heads + [len(v) for _ in range(num_heads) for v in self.category_values.values()]
        widths += [c, c]
        size = (d + 1) * sum(widths)
        flat = np.zeros(size) if flat is None else np.asarray(flat, dtype=float)
        if flat.shape != (size,):
            raise ValueError(f"flat vector has {flat.size} entries, model needs {size}")
        self.flat = flat
        self.blocks: list[Affine] = []  # in buffer order
        offset = 0
        for w in widths:
            end = offset + d * w
            self.blocks.append(Affine(flat[offset:end].reshape(d, w), flat[end : end + w]))
            offset = end + w
        blocks = iter(self.blocks)
        self.object_heads = [next(blocks) for _ in range(num_heads)]  # each d -> (C + 1), background last
        # per head, per category: d -> |values|
        self.attribute_heads = [{cat: next(blocks) for cat in self.category_values} for _ in range(num_heads)]
        self.mid_det, self.mid_cls = blocks  # each d -> C

    def like(self, flat: np.ndarray) -> "ModelParams":
        """The same layout as views into flat, which must have the same size."""
        return ModelParams(self.feature_dim, self.class_names, self.category_values, self.num_heads, flat)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass
class RegionSet:
    """Proposal boxes plus one descriptor per proposal."""

    boxes: np.ndarray  # (m, 4) in (x_min, y_min, x_max, y_max) order
    features: np.ndarray  # (m, d)

    def __post_init__(self) -> None:
        self.boxes = check_boxes(self.boxes)
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] != self.boxes.shape[0]:
            raise ValueError("features must be (m, d) with one row per box")
        if self.boxes.shape[0] < 1:
            raise ValueError("need at least one region")
        if not np.isfinite(self.features).all():
            raise ValueError("non-finite region features")

    @property
    def size(self) -> int:
        return self.boxes.shape[0]


@dataclass
class ScoreTensor:
    objects: list[np.ndarray]  # per head: (m, C + 1), rows sum to 1
    # per head: (m, V), one softmax per category over its column slice
    attributes: list[np.ndarray]


@dataclass
class MidScores:
    per_region: np.ndarray  # (m, C) product of the two streams
    image_level: np.ndarray  # (C,) sigmoid of per-class sums, in (0.5, 1)


@dataclass
class ScoreGrads:
    """Gradient of some loss with respect to every score output."""

    objects: list[np.ndarray]
    attributes: list[np.ndarray]
    mid_per_region: np.ndarray
    mid_image: np.ndarray

    @staticmethod
    def zeros_like(scores: ScoreTensor, mid: MidScores) -> "ScoreGrads":
        return ScoreGrads(
            objects=[np.zeros_like(s) for s in scores.objects],
            attributes=[np.zeros_like(a) for a in scores.attributes],
            mid_per_region=np.zeros_like(mid.per_region),
            mid_image=np.zeros_like(mid.image_level),
        )

    def add(self, other: "ScoreGrads") -> None:
        for mine, theirs in zip(self.objects + self.attributes, other.objects + other.attributes):
            mine += theirs
        self.mid_per_region += other.mid_per_region
        self.mid_image += other.mid_image


def init_params(
    feature_dim: int,
    class_names: Sequence[str],
    category_values: Mapping[str, Sequence[str]],
    num_heads: int,
    seed: int,
) -> ModelParams:
    """Centered-uniform weights at scale 1/sqrt(d), zero biases, drawn in buffer order."""
    params = ModelParams(feature_dim, class_names, category_values, num_heads)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(feature_dim)
    for block in params.blocks:
        block.weight[:] = rng.uniform(-scale, scale, size=block.weight.shape)
    return params


def forward(params: ModelParams, regions: RegionSet) -> tuple[ScoreTensor, MidScores]:
    x = regions.features
    if x.shape[1] != params.feature_dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match model dim {params.feature_dim}")
    objects = [softmax_rows(head.apply(x)) for head in params.object_heads]
    # the empty leading block keeps a model without categories at shape (m, 0)
    no_columns = np.empty((len(x), 0))
    attributes = [
        np.concatenate([no_columns] + [softmax_rows(head.apply(x)) for head in heads.values()], axis=1)
        for heads in params.attribute_heads
    ]
    gate = sigmoid(params.mid_cls.apply(x))
    region_dist = softmax_cols(params.mid_det.apply(x))
    per_region = gate * region_dist
    image_level = sigmoid(per_region.sum(axis=0))
    return ScoreTensor(objects, attributes), MidScores(per_region, image_level)


def _softmax_rows_backward(s: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return s * (grad - (grad * s).sum(axis=1, keepdims=True))


def _softmax_cols_backward(s: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return s * (grad - (grad * s).sum(axis=0, keepdims=True))


def param_gradients(
    params: ModelParams, regions: RegionSet, scores: ScoreTensor, grads: ScoreGrads
) -> ModelParams:
    """Exact gradient of sum(grads * scores) with respect to every parameter.

    scores is forward's output for these params and regions; its object
    and attribute softmaxes are reused, not recomputed. Heads whose
    upstream gradient is all zero come back with exactly zero parameter
    gradient; nothing leaks across heads.
    """
    x = regions.features
    if len(grads.objects) != params.num_heads:
        raise ValueError("gradient structure does not match the number of heads")
    out = params.like(np.zeros_like(params.flat))

    def backprop(block: Affine, dz: np.ndarray) -> None:
        block.weight[:] = x.T @ dz
        block.bias[:] = dz.sum(axis=0)

    for k, g in enumerate(grads.objects):
        if np.any(g):
            backprop(out.object_heads[k], _softmax_rows_backward(scores.objects[k], g))

    for k, g_head in enumerate(grads.attributes):
        for cat, cols in params.category_slices.items():
            g = g_head[:, cols]
            if np.any(g):
                backprop(out.attribute_heads[k][cat], _softmax_rows_backward(scores.attributes[k][:, cols], g))

    if np.any(grads.mid_per_region) or np.any(grads.mid_image):
        gate = sigmoid(params.mid_cls.apply(x))
        region_dist = softmax_cols(params.mid_det.apply(x))
        per_region = gate * region_dist
        y = sigmoid(per_region.sum(axis=0))
        d_per_region = grads.mid_per_region + grads.mid_image * y * (1.0 - y)
        d_gate = d_per_region * region_dist
        d_dist = d_per_region * gate
        backprop(out.mid_cls, d_gate * gate * (1.0 - gate))
        backprop(out.mid_det, _softmax_cols_backward(region_dist, d_dist))
    return out


def iter_param_arrays(params: ModelParams) -> Iterator[tuple[str, np.ndarray]]:
    """Canonical traversal order: the buffer order, shared by checkpoints and checks."""
    for k, head in enumerate(params.object_heads):
        yield f"object[{k}].weight", head.weight
        yield f"object[{k}].bias", head.bias
    for k, heads in enumerate(params.attribute_heads):
        for cat in params.category_values:
            yield f"attribute[{k}][{cat}].weight", heads[cat].weight
            yield f"attribute[{k}][{cat}].bias", heads[cat].bias
    yield "mid_det.weight", params.mid_det.weight
    yield "mid_det.bias", params.mid_det.bias
    yield "mid_cls.weight", params.mid_cls.weight
    yield "mid_cls.bias", params.mid_cls.bias


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Magic line, JSON layout header, then the flat float64 parameter vector."""
    header = {
        "feature_dim": params.feature_dim,
        "class_names": list(params.class_names),
        "category_values": {c: list(v) for c, v in params.category_values.items()},
        "num_heads": params.num_heads,
        "dtype": "<f8",
    }
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(params.flat.astype("<f8").tobytes())


def _str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# required header keys: (check, what the check expects)
_HEADER_KEYS = {
    "feature_dim": (lambda v: type(v) is int and v > 0, "a positive integer"),
    "class_names": (lambda v: _str_list(v) and len(v) > 0, "a non-empty list of strings"),
    "category_values": (
        lambda v: isinstance(v, dict) and all(_str_list(s) and s and len(set(s)) == len(s) for s in v.values()),
        "a map from category to non-empty lists of distinct strings",
    ),
    "num_heads": (lambda v: type(v) is int and v > 0, "a positive integer"),
    "dtype": (lambda v: v == "<f8", "'<f8'"),
}


def load_checkpoint(path: str | Path) -> ModelParams:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a capdet checkpoint (bad magic)")
        header_line = f.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ValueError(f"{path}: corrupt checkpoint header") from None
        blob = f.read()
    if not isinstance(header, dict):
        raise ValueError(f"{path}: corrupt checkpoint header (not a JSON object)")
    header.setdefault("dtype", "<f8")  # v1 files may omit it
    for key, (valid, expected) in _HEADER_KEYS.items():
        if key not in header or not valid(header[key]):
            raise ValueError(f"{path}: checkpoint header needs {key!r} as {expected}")
    params = ModelParams(
        header["feature_dim"], header["class_names"], header["category_values"], header["num_heads"]
    )
    if len(blob) != params.flat.nbytes:
        raise ValueError(f"{path}: payload has {len(blob)} bytes, layout needs {params.flat.nbytes}")
    params.flat[:] = np.frombuffer(blob, dtype="<f8")
    return params
