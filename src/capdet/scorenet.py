"""Score heads over region descriptors, packed into one affine map.

One model holds K parallel object heads (softmax over classes plus
background), per-head attribute heads (softmax over each category's
values), and a two-stream image-evidence block: one stream squashed per
entry by a sigmoid, one turned into a distribution over regions per
class, multiplied elementwise. Summing that product over regions and
applying a sigmoid gives the per-class image score, which therefore
always lies in (0.5, 1).

Every head reads the same region feature, so all of them together are
one affine map from d to P = K(C+1) + K*V + 2C columns, in this order:

    object     K(C+1)  head by head: the C classes, then background
    attribute  K*V     head by head: the categories side by side
    det        C       the stream normalized over regions
    cls        C       the sigmoid gate

Forward and backward run over a padded batch of N scenes
(trainer.SceneBatch): (N, M, d) features and an (N, M) valid mask of
each scene's own rows; a lone scene is N = 1. Training, inference and
the gradient check share one forward: logits multiplies each scene over
its own rows (at least two), then head_scores runs one softmax pass over
the (N, M, K, C+1) view of the object columns and one over all
categories of the (N, M, K, V) view of the attribute columns. Region
reductions run over axis -2, so each scene scores, bit for bit, as it
would alone; padded rows get -inf before the softmax over regions, so
they carry no evidence, and they get zero gradient.

Backward builds one (N, M, P) gradient of the map's outputs, multiplies
each scene's own rows of features and gradient, as logits does, and sums
the scenes' parameter gradients in order, so on any BLAS kernel a
scene's gradient has the bits of its one-scene batch's. A step whose
supervision names no attribute leaves the attribute heads out: forward
skips their softmaxes, so Scores holds an empty attribute block, and
backward leaves their gradient columns zero. The matmul keeps every
column, since a narrower product rounds some columns differently.

All parameters live in one flat float64 buffer, the packed map row by
row: d weight rows, then the bias row (packed is its (d + 1, P) view).
Checkpoints (iter_param_arrays) store it block by block in the column
order above, each block's (d, width) weight and then its bias;
checkpoint_order applies that order only at save and load. The JSON
header holds the keys of one field table, CHECKPOINT_FIELDS
(fields.check_fields); code checks the payload size against it.

The backward pass reuses forward's softmaxes and evidence and is checked
against central finite differences in the test suite rather than trusted
by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .fields import JSON_ERRORS, Field, check_fields, is_positive_int, is_str_list, naming, whole_file
from .geometry import check_boxes

# probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] before any log
PROB_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"capdet-checkpoint-v1\n"


def clamp_prob(p: np.ndarray | float) -> np.ndarray | float:
    # np.clip's bits from two ufunc calls, without its Python layers
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 with the bits of numpy's pairwise sum along a contiguous last axis.

    Below 8 entries numpy adds in order; from 8 on it keeps 8 interleaved
    partial sums and combines them pairwise, and past 128 it splits the
    row in halves.
    """
    n = len(a)
    if n < 8:
        return a.sum(axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(a[:half]) + pairwise_sum(a[half:])
    partial = a[:8]
    for i in range(8, n - n % 8, 8):
        partial = partial + a[i : i + 8]
    total = partial.reshape((2, 2, 2) + a.shape[1:]).sum(axis=2).sum(axis=1).sum(axis=0)
    for i in range(n - n % 8, n):
        total = total + a[i]
    return total


def _last_first(a: np.ndarray) -> np.ndarray:
    """A C-ordered copy of a with its last axis moved to the front, always a new array."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1))).copy()


def _last_back(t: np.ndarray) -> np.ndarray:
    """The view of t that undoes _last_first."""
    return t.transpose(tuple(range(1, t.ndim)) + (0,))


WHOLE_ROW = (slice(None),)


def softmax_rows(z: np.ndarray, segments: Sequence[slice] = WHOLE_ROW, *, out: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, or over each column slice of it in segments, written into out.

    The rows are many and short (a head's classes, a category's values),
    and numpy reduces each row in its own inner loop. So the work runs on
    a copy with the last axis first, one vector operation per column. Maxima
    and exponentials are exact in any order, and pairwise_sum repeats the
    row sum, so the result has the bits of the row-wise formula.
    """
    t = _last_first(z)
    for s in segments:
        e = np.exp(t[s] - t[s].max(axis=0))
        t[s] = e / pairwise_sum(e)
    out[...] = _last_back(t)
    return out


def softmax_cols(z: np.ndarray) -> np.ndarray:
    """Softmax over axis -2, the regions of an (..., m, C) array."""
    z = z - z.max(axis=-2, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-2, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500.0), 500.0)))


class ModelParams:
    """All trainable parameters: one flat buffer holding the packed (d + 1, P) map.

    category_values fixes the column order of every attribute head, and
    class_names fixes the column order of object and evidence heads, so a
    checkpoint is self-describing. Within one head's V attribute columns,
    category_slices gives each category's columns and value_columns maps
    (category, value) to its column.

    segments names every column block's (name, width) in column order;
    object_cols, attribute_cols, det_cols and cls_cols slice the columns;
    checkpoint_order holds the position in flat of each checkpoint entry,
    in file order.
    """

    def __init__(
        self,
        feature_dim: int,
        class_names: Sequence[str],
        category_values: Mapping[str, Sequence[str]],
        num_heads: int,
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
        v = 0
        for cat, vals in self.category_values.items():
            self.category_slices[cat] = slice(v, v + len(vals))
            self.value_columns.update({(cat, val): v + j for j, val in enumerate(vals)})
            v += len(vals)
        c = len(self.class_names)
        n_obj, n_attr = num_heads * (c + 1), num_heads * v
        self.object_cols = slice(0, n_obj)
        self.attribute_cols = slice(n_obj, n_obj + n_attr)
        self.det_cols = slice(n_obj + n_attr, n_obj + n_attr + c)
        self.cls_cols = slice(n_obj + n_attr + c, n_obj + n_attr + 2 * c)
        # each block is stored as its (d + 1, width) column block of packed, raveled; a layout too large
        # to hold fails here, on numpy's allocation, before the per-head list below is built
        index = np.arange((d + 1) * self.cls_cols.stop).reshape(d + 1, -1)
        cats = self.category_values.items()
        self.segments = (
            [(f"object[{k}]", c + 1) for k in range(num_heads)]
            + [(f"attribute[{k}][{cat}]", len(vals)) for k in range(num_heads) for cat, vals in cats]
            + [("mid_det", c), ("mid_cls", c)]
        )
        blocks = np.split(index, np.cumsum([w for _, w in self.segments])[:-1], axis=1)
        self.checkpoint_order = np.concatenate([block.ravel() for block in blocks])
        self.flat = np.zeros(index.size)

    @property
    def packed(self) -> np.ndarray:
        """The (d + 1, P) view of flat: d weight rows, then the bias row."""
        return self.flat.reshape(self.feature_dim + 1, -1)

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
class Scores:
    """Forward's output for a padded batch of N scenes.

    heads holds every head's probabilities in the packed column order,
    the K object blocks and then the K attribute blocks (V is 0 when
    forward left the attribute heads out); objects and attributes are
    views into it, and split takes the same views of any array laid out
    like it, such as a gradient. The evidence block's streams are kept
    for the backward pass; valid marks each scene's own rows.
    """

    heads: np.ndarray  # (N, m, K(C + 1) + K * V)
    num_heads: int
    gate: np.ndarray  # (N, m, C) sigmoid stream
    region_dist: np.ndarray  # (N, m, C) softmax over regions per class
    per_region: np.ndarray  # (N, m, C) product of the two streams
    image_level: np.ndarray  # (N, C) sigmoid of per-class sums, in (0.5, 1)
    valid: np.ndarray  # (N, m) bool
    objects: np.ndarray = field(init=False)  # (N, K, m, C + 1), rows sum to 1
    attributes: np.ndarray = field(init=False)  # (N, K, m, V), one softmax per category

    def __post_init__(self) -> None:
        self.objects, self.attributes = self.split(self.heads)

    def split(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, K, m, C + 1) and (N, K, m, V) views of the head columns of a, laid out like heads."""
        k = self.num_heads
        n_obj = k * (self.image_level.shape[-1] + 1)
        v = (self.heads.shape[-1] - n_obj) // k
        lead = a.shape[:-1]
        objects = a[..., :n_obj].reshape(lead + (k, -1)).swapaxes(-3, -2)
        return objects, a[..., n_obj : n_obj + k * v].reshape(lead + (k, v)).swapaxes(-3, -2)


def init_params(
    feature_dim: int,
    class_names: Sequence[str],
    category_values: Mapping[str, Sequence[str]],
    num_heads: int,
    seed: int,
) -> ModelParams:
    """Centered-uniform weights at scale 1/sqrt(d), zero biases, drawn in checkpoint order."""
    params = ModelParams(feature_dim, class_names, category_values, num_heads)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(feature_dim)
    order = params.checkpoint_order
    weights = order[order < params.packed[:-1].size]
    params.flat[weights] = rng.uniform(-scale, scale, size=weights.size)
    return params


def logits(params: ModelParams, batch) -> np.ndarray:
    """The packed map's (N, M, P) outputs for a padded batch's features; rows past max(2, own count) hold the bias."""
    x = batch.features
    if x.shape[-1] != params.feature_dim:
        raise ValueError(f"feature dim {x.shape[-1]} does not match model dim {params.feature_dim}")
    w = params.packed
    z = np.zeros(x.shape[:-1] + w.shape[1:])
    # each scene's own rows, at least two (see trainer.SceneBatch): BLAS rounds
    # a row by the row count of its product, so the padding must not reach them
    for n, size in enumerate(batch.valid.sum(axis=-1).tolist()):
        np.matmul(x[n, : max(2, size)], w[:-1], out=z[n, : max(2, size)])
    z += w[-1]
    return z


def head_scores(params: ModelParams, z: np.ndarray, valid: np.ndarray, attributes: bool = True) -> Scores:
    """Every head's scores from logits z of shape (N, m, P).

    Region reductions run over axis -2, so each scene scores exactly as it
    would alone. valid (N, m) masks padded rows out of the softmax over
    regions. With attributes False the attribute block of heads is empty
    and its softmaxes are skipped.
    """
    gate = sigmoid(z[..., params.cls_cols])
    region_dist = softmax_cols(np.where(valid[..., None], z[..., params.det_cols], -np.inf))
    per_region = gate * region_dist
    cols = params.attribute_cols
    heads = np.empty(z.shape[:-1] + ((cols.stop if attributes else cols.start),))
    scores = Scores(heads, params.num_heads, gate, region_dist, per_region, sigmoid(per_region.sum(axis=-2)), valid)
    z_objects, z_attributes = scores.split(z)
    softmax_rows(z_objects, out=scores.objects)
    if attributes:
        softmax_rows(z_attributes, tuple(params.category_slices.values()), out=scores.attributes)
    return scores


def forward(params: ModelParams, batch, attributes: bool = True) -> Scores:
    """Scores for a padded batch: anything with features and valid, such as a SceneBatch."""
    return head_scores(params, logits(params, batch), batch.valid, attributes)


def _softmax_rows_backward(s: np.ndarray, grad: np.ndarray, segments: Sequence[slice] = WHOLE_ROW) -> np.ndarray:
    """s * (grad - sum(grad * s)) over each segment of the last axis, laid out as softmax_rows computes."""
    s, grad = _last_first(s), _last_first(grad)
    t = grad * s
    for seg in segments:
        t[seg] = pairwise_sum(t[seg])
    grad -= t
    grad *= s
    return _last_back(grad)


def _softmax_cols_backward(s: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return s * (grad - (grad * s).sum(axis=-2, keepdims=True))


def param_gradients(params: ModelParams, batch, scores: Scores, grad: np.ndarray, grad_image: np.ndarray) -> np.ndarray:
    """Gradient of sum(grad * scores.heads) + sum(grad_image * scores.image_level), laid out like params.flat.

    scores is forward's output for these params and batch; its softmaxes
    and evidence streams are reused, not recomputed. Columns whose
    upstream gradient is all zero come back with exactly zero parameter
    gradient; nothing leaks across heads. The result is the sum of the
    scenes' gradients, added in scene order; padded rows must get zero
    grad, and then their dz is zero too.
    """
    x = batch.features
    if grad.shape != scores.heads.shape:
        raise ValueError(f"score gradient has shape {grad.shape}, scores have {scores.heads.shape}")
    # zeros: the attribute columns stay zero when forward left them out
    dz = np.zeros(x.shape[:-1] + (params.packed.shape[1],))
    d_objects, d_attributes = scores.split(dz)
    g_objects, g_attributes = scores.split(grad)
    d_objects[:] = _softmax_rows_backward(scores.objects, g_objects)
    if d_attributes.shape[-1]:
        d_attributes[:] = _softmax_rows_backward(scores.attributes, g_attributes, tuple(params.category_slices.values()))
    y, gate = scores.image_level, scores.gate
    d_per_region = (grad_image * y * (1.0 - y))[..., None, :]
    dz[..., params.det_cols] = _softmax_cols_backward(scores.region_dist, d_per_region * gate)
    dz[..., params.cls_cols] = d_per_region * scores.region_dist * gate * (1.0 - gate)
    # one matmul per scene over its own rows, as in logits, then the scenes
    # added in order: the bits of summing per-scene calls, on any kernel
    g = np.empty((len(x),) + params.packed.shape)
    for n, size in enumerate(batch.valid.sum(axis=-1).tolist()):
        np.matmul(x[n, : max(2, size)].T, dz[n, : max(2, size)], out=g[n, :-1])
    g[:, -1] = dz.sum(axis=-2)
    return g.sum(axis=0).ravel()


def iter_param_arrays(params: ModelParams) -> Iterator[tuple[str, np.ndarray]]:
    """Canonical traversal order: the checkpoint order, as views of the packed map."""
    packed, start = params.packed, 0
    for name, width in params.segments:
        block = packed[:, start : start + width]
        yield f"{name}.weight", block[:-1]
        yield f"{name}.bias", block[-1]
        start += width


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Magic line, JSON layout header, then the float64 parameters in checkpoint order.

    Non-finite parameters are a ValueError, and no file is written.
    """
    if not np.isfinite(params.flat).all():
        raise ValueError(f"{path}: refusing to write non-finite parameters")
    header = {
        "feature_dim": params.feature_dim,
        "class_names": list(params.class_names),
        "category_values": {c: list(v) for c, v in params.category_values.items()},
        "num_heads": params.num_heads,
        "dtype": "<f8",
    }
    with whole_file(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(params.flat[params.checkpoint_order].astype("<f8").tobytes())


# the checkpoint header's keys; v1 files may omit dtype
CHECKPOINT_FIELDS = {
    "feature_dim": Field(is_positive_int, "a positive integer"),
    "class_names": Field(lambda v: is_str_list(v) and len(v) > 0, "a non-empty list of strings"),
    "category_values": Field(
        lambda v: isinstance(v, dict) and all(is_str_list(s) and s and len(set(s)) == len(s) for s in v.values()),
        "a map from category to non-empty lists of distinct strings",
    ),
    "num_heads": Field(is_positive_int, "a positive integer"),
    "dtype": Field(lambda v: v == "<f8", "'<f8'", default="<f8"),
}


def load_checkpoint(path: str | Path) -> ModelParams:
    """A checkpoint's parameters; a DataError names path for any failure (`bad checkpoint <path>: …` if unreadable)."""
    with naming(f"bad checkpoint {path}", (OSError,)), open(path, "rb") as f, naming(str(path)):
        if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError("not a capdet checkpoint (bad magic)")
        with naming("corrupt checkpoint header", JSON_ERRORS):
            header = json.loads(f.readline().decode("utf-8"))
        header = check_fields(header, CHECKPOINT_FIELDS, "checkpoint header")
        blob = f.read()
        # the payload size is checked against the header's numbers before any of
        # the layout is built, so a header cannot make this allocate
        num_classes, num_values = len(header["class_names"]), sum(map(len, header["category_values"].values()))
        columns = header["num_heads"] * (num_classes + 1 + num_values) + 2 * num_classes
        needed = (header["feature_dim"] + 1) * columns * 8
        if len(blob) != needed:
            raise ValueError(f"payload has {len(blob)} bytes, layout needs {needed}")
        params = ModelParams(header["feature_dim"], header["class_names"], header["category_values"], header["num_heads"])
        params.flat[params.checkpoint_order] = np.frombuffer(blob, dtype="<f8")
        if not np.isfinite(params.flat).all():
            raise ValueError("checkpoint holds non-finite parameters")
    return params
