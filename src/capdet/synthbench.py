"""Synthetic caption-detection benchmark on prototype features.

Every class owns a prototype vector; confusable pairs share a
neighborhood (distance <= delta) while all other class pairs stay at
least 4*delta apart, so class identity alone cannot separate a
confusable pair once noise is added. Attribute values own prototype
vectors too, and a proposal's descriptor is its class prototype plus the
prototypes of the object's attribute values plus Gaussian noise. Since
confusable partners draw from disjoint color pools, the attribute part
of the descriptor is what makes them separable; captions are the only
place that information is spelled out.

The universe is fixed: eight classes, the confusable pairs apple/pear and
cup/bowl, their attribute pools, the prototype geometry and the shape of
a scene are constants on SynthConfig. Four settings remain, the ones
`capdet synth` exposes: feature_dim, noise_sigma, attr_mention_prob and
cooccur_prob.

Scenes are deterministic in (master seed, scene index): each scene draws
from its own stream, so generation order or parallelism cannot change
the data. Generation hands out the values it draws and computes, unrounded.
A stream's draws keep one fixed order; a box's four bounded values come
from one rng.random(4) (numpy's uniform(low, high) is low + (high - low) *
random()) and a proposal's noise is drawn straight into its row, the same
values a call per value would draw, so the dataset bytes are those of that
loop (tests/synth_reference.py).

A dataset file (schema version 3) is a JSON header line, which carries the
universe's fingerprint and the scene count, then for each scene one JSON
record line, which counts its proposals, followed at once by its payload:
the proposal boxes and then the features as row-major little-endian
float64 bytes. So a generate/load round trip is an identity, and neither
side converts numbers to text. Versions 1 and 2 (decimal text, then base64
inside the record) are refused: capdet synth regenerates any split. The
reader accepts the keys of three field tables (fields.check_fields), those
the writer writes: HEADER_FIELDS, RECORD_FIELDS and GT_FIELDS. Code checks
the schema and version before them, then what no table says: the framing
(each payload's size against the bytes left before it is read, a line or
payload that ends early, and no byte after the counted scenes), box
geometry, and the class_names that GT classes and confusable pairs name.
Each failure is a DataError naming the file and the header or scene
(fields.naming). `capdet synth` writes each split from scene_stream, one
scene at a time, through fields.whole_file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .fields import JSON_ERRORS, DataError, Field, check_fields, is_positive_int, is_str_list, naming, whole_file
from .geometry import check_boxes
from .scorenet import RegionSet
from .textgraph import CAPTIONS, AttributeRegistry, Vocabulary


SCHEMA_NAME = "capdet-synth"
SCHEMA_VERSION = 3
# the keys write_dataset writes, the only ones read_dataset accepts (see the module docstring)
HEADER_FIELDS = {
    "schema": Field(lambda v: v == SCHEMA_NAME, repr(SCHEMA_NAME)),
    "version": Field(lambda v: type(v) is int and v == SCHEMA_VERSION, str(SCHEMA_VERSION)),
    "feature_dim": Field(is_positive_int, "a positive integer"),
    "class_names": Field(lambda v: is_str_list(v) and 0 < len(v) == len(set(v)), "a non-empty list of distinct strings"),
    "confusable_pairs": Field(lambda v: isinstance(v, list), "a list of [a, b] pairs"),
    "universe": Field(lambda v: isinstance(v, str) and bool(re.fullmatch("[0-9a-f]{16}", v)), "a 16-digit hex fingerprint"),
    "scenes": Field(lambda v: type(v) is int and v >= 0, "a non-negative integer"),
}
RECORD_FIELDS = {
    "image_id": Field(lambda v: isinstance(v, str), "a string"),
    "gt": Field(lambda v: isinstance(v, list) and all(isinstance(g, dict) for g in v), "a list of GT objects"),
    "proposals": Field(is_positive_int, "a positive integer"),
    "captions": CAPTIONS,
}
GT_FIELDS = {
    # JSON numbers are int or float: not bool, and not the numeric strings check_boxes would take
    "box": Field(
        lambda v: isinstance(v, list) and len(v) == 4 and {type(x) for x in v} <= {int, float}, "a list of four JSON numbers"
    ),
    "class": Field(lambda v: type(v) is int, "an integer"),
    "attributes": Field(
        lambda v: isinstance(v, list) and all(is_str_list(a) and len(a) == 2 for a in v),
        "a list of [category, value] pairs of strings",
    ),
}

# prenominal word order used by the caption templates
_CATEGORY_ORDER = ("size", "shape", "color", "material")

@dataclass(frozen=True)
class SynthConfig:
    """The four settings `capdet synth` exposes; everything else about the universe is fixed.

    The fixed part (classes, confusable pairs, attribute pools, prototype
    geometry and scene shape) is class-level constants, readable on any
    instance.
    """

    feature_dim: int = 64
    noise_sigma: float = 0.1
    attr_mention_prob: float = 0.7  # rho
    cooccur_prob: float = 0.9

    class_names: ClassVar[tuple[str, ...]] = ("apple", "pear", "cup", "bowl", "cat", "dog", "chair", "stop sign")
    confusable_pairs: ClassVar[tuple[tuple[str, str], ...]] = (("apple", "pear"), ("cup", "bowl"))
    partners: ClassVar[dict[str, str]] = {a: b for pair in confusable_pairs for a, b in (pair, pair[::-1])}
    # confusable partners draw from disjoint color pools
    attribute_pools: ClassVar[dict[str, dict[str, tuple[str, ...]]]] = {
        "apple": {"color": ("red", "yellow"), "size": ("small", "large")},
        "pear": {"color": ("green", "brown"), "size": ("small", "large")},
        "cup": {"color": ("white", "blue"), "size": ("small", "large")},
        "bowl": {"color": ("black", "orange"), "size": ("small", "large")},
        "cat": {"color": ("black", "white", "brown"), "size": ("small", "large")},
        "dog": {"color": ("brown", "black", "white"), "size": ("small", "large")},
        "chair": {"color": ("blue", "green"), "material": ("wooden", "plastic")},
        "stop sign": {"color": ("red",), "shape": ("square", "round")},
    }
    confusable_distance: ClassVar[float] = 0.05  # delta
    attribute_norm: ClassVar[float] = 0.35
    max_objects: ClassVar[int] = 4
    jitters_per_gt: ClassVar[int] = 6
    background_boxes: ClassVar[int] = 10
    extra_attr_prob: ClassVar[float] = 0.4
    captions_min: ClassVar[int] = 1
    captions_max: ClassVar[int] = 3
    # prototypes are unit vectors (confusable partners 0.025 apart): noise this
    # large has long erased the signal, yet keeps training far from overflow
    max_noise_sigma: ClassVar[float] = 1e3

    def __post_init__(self) -> None:
        if self.feature_dim < 8:
            raise ValueError(f"feature_dim must be at least 8, got {self.feature_dim}")
        if not 0 <= self.noise_sigma <= self.max_noise_sigma:
            raise ValueError(
                f"noise_sigma must lie in [0, {self.max_noise_sigma:g}] (class prototypes are unit vectors, "
                f"so noise hides them long before features overflow), got {self.noise_sigma}"
            )
        for name in ("attr_mention_prob", "cooccur_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass
class Universe:
    config: SynthConfig
    class_prototypes: np.ndarray  # (C, d)
    attribute_prototypes: dict[tuple[str, str], np.ndarray]
    background_prototype: np.ndarray

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.config.class_names


def make_universe(config: SynthConfig, registry: AttributeRegistry, seed: int) -> Universe:
    """Place prototypes so the stated separations hold, or fail loudly.

    Confusable partners end up delta/2 apart, each from its anchor. Anchors
    and the background are unit vectors redrawn until each two are at least
    max(5.5 delta, 1) apart, which a small feature_dim may make impossible;
    every other class pair, background included, then clears 4.5 delta. A
    registry that lacks a value the attribute pools draw is a DataError.
    """
    for pools in config.attribute_pools.values():
        for cat, vals in pools.items():
            for val in vals:
                if val not in registry.values.get(cat, ()):
                    raise DataError(f"registry lacks {(cat, val)}, which the synthetic attribute pools draw")
    rng = np.random.default_rng(seed)
    delta = config.confusable_distance
    names = config.class_names
    # one anchor per confusable pair (owned by its first member) plus one per free class
    owners = [n for n in names if all(n != b for _, b in config.confusable_pairs)]
    min_gap = max(5.5 * delta, 1.0)

    def unit(v: np.ndarray) -> np.ndarray:
        # not np.linalg.norm: a 1-D norm is a BLAS dot, whose last bits depend on the CPU kernel
        return v / np.sqrt(np.sum(v * v))

    for attempt in range(200):
        anchors = {n: unit(rng.standard_normal(config.feature_dim)) for n in owners}
        background = unit(rng.standard_normal(config.feature_dim))
        points = np.stack([*anchors.values(), background])
        gaps = np.linalg.norm(points[:, None] - points[None], axis=-1)  # between each two points
        if (gaps[np.triu_indices(len(points), 1)] < min_gap).any():
            continue
        prototypes = dict(anchors)
        for a, b in config.confusable_pairs:
            prototypes[b] = prototypes[a] + (delta / 2.0) * unit(rng.standard_normal(config.feature_dim))
        proto_matrix = np.stack([prototypes[n] for n in names])
        attr_prototypes = {}
        for cat in registry.categories:
            for val in registry.values[cat]:
                attr_prototypes[(cat, val)] = config.attribute_norm * unit(
                    rng.standard_normal(config.feature_dim)
                )
        return Universe(config, proto_matrix, attr_prototypes, background)
    raise ValueError(
        f"could not satisfy prototype separation constraints in {config.feature_dim} dimensions"
    )


@dataclass
class GroundTruth:
    box: tuple[float, float, float, float]  # (x_min, y_min, x_max, y_max)
    class_index: int
    attributes: list[tuple[str, str]]


@dataclass
class SyntheticScene:
    image_id: str
    gt: list[GroundTruth]
    proposals: RegionSet
    captions: list[str]

    def to_record(self) -> tuple[dict, bytes]:
        """The scene's JSON record and its payload: the proposal boxes, then the features, as row-major <f8 bytes."""
        gt = [{"box": list(g.box), "class": g.class_index, "attributes": [list(p) for p in g.attributes]} for g in self.gt]
        record = {"image_id": self.image_id, "gt": gt, "proposals": self.proposals.size, "captions": list(self.captions)}
        return record, self.proposals.boxes.astype("<f8").tobytes() + self.proposals.features.astype("<f8").tobytes()

    @staticmethod
    def from_record(
        record: object, read_payload: Callable[[int], bytes], num_classes: int, feature_dim: int
    ) -> "SyntheticScene":
        """The scene of a record, whose payload read_payload(size in bytes) gives once the record has passed its checks."""
        record = check_fields(record, RECORD_FIELDS, "record")
        entries = [check_fields(g, GT_FIELDS, "GT") for g in record["gt"]]
        for g in entries:
            if not 0 <= g["class"] < num_classes:
                raise ValueError(f"GT class {g['class']!r} is not an index into the {num_classes} classes")
        # a JSON integer too large for a float is an OverflowError here, which read_dataset names
        gt_boxes = check_boxes(np.reshape([g["box"] for g in entries], (-1, 4))).tolist()
        gt = [GroundTruth(tuple(box), g["class"], [tuple(a) for a in g["attributes"]]) for box, g in zip(gt_boxes, entries)]
        m = record["proposals"]
        payload = read_payload(m * (4 + feature_dim) * 8)
        # astype copies: each array owns its memory, native and C-contiguous
        boxes = np.frombuffer(payload, "<f8", 4 * m).reshape(m, 4).astype(float)
        features = np.frombuffer(payload, "<f8", offset=32 * m).reshape(m, feature_dim).astype(float)
        return SyntheticScene(record["image_id"], gt, RegionSet(boxes, features), list(record["captions"]))


@dataclass
class CaptionFacts:
    """What the generated captions actually said, for parser fidelity checks."""

    mentioned_classes: set[int] = field(default_factory=set)
    mentioned_pairs: set[tuple[int, str, str]] = field(default_factory=set)


def _sample_attributes(rng: np.random.Generator, config: SynthConfig, name: str) -> list[tuple[str, str]]:
    pools = config.attribute_pools[name]
    color_pool = pools["color"]
    attrs = [("color", str(color_pool[rng.integers(len(color_pool))]))]
    extras = [c for c in _CATEGORY_ORDER if c != "color" and c in pools]
    if rng.random() < config.extra_attr_prob:
        cat = extras[int(rng.integers(len(extras)))]
        pool = pools[cat]
        attrs.append((cat, str(pool[rng.integers(len(pool))])))
    return attrs


def _sample_classes(rng: np.random.Generator, config: SynthConfig) -> list[str]:
    count = int(rng.integers(1, config.max_objects + 1))
    pool = list(config.class_names)
    chosen: list[str] = []
    while len(chosen) < count:
        name = pool.pop(int(rng.integers(len(pool))))
        chosen.append(name)
        partner = config.partners.get(name)
        if partner in pool and len(chosen) < count and rng.random() < config.cooccur_prob:
            pool.remove(partner)
            chosen.append(partner)
    return chosen


def _sample_box(rng: np.random.Generator, low: float, high: float, margin: float) -> tuple[float, float, float, float]:
    """A box with sides drawn from [low, high), placed at least margin times each side from the image's edges."""
    # numpy's rng.uniform(low, high) is low + (high - low) * rng.random(), one draw
    # each, so four draws at once give the same values in the same order
    u = rng.random(4).tolist()
    w = low + (high - low) * u[0]
    h = low + (high - low) * u[1]
    x_low, y_low = margin * w, margin * h
    x0 = x_low + (1.0 - (1.0 + margin) * w - x_low) * u[2]
    y0 = y_low + (1.0 - (1.0 + margin) * h - y_low) * u[3]
    return (x0, y0, x0 + w, y0 + h)


def _jitter_box(rng: np.random.Generator, gt: Sequence[float], target_iou: float) -> tuple[float, ...]:
    """Shift a copy of gt so its IoU with gt is exactly target_iou."""
    x_min, y_min, x_max, y_max = gt
    w = x_max - x_min
    h = y_max - y_min
    mode = int(rng.integers(3)) if target_iou >= 0.5 else 0
    if mode == 0:  # shift both axes equally
        alpha = 1.0 - math.sqrt(2.0 * target_iou / (1.0 + target_iou))
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


def _article(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


def _phrase(name: str, mentioned: Sequence[tuple[str, str]]) -> str:
    by_cat = dict(mentioned)
    words = [by_cat[c] for c in _CATEGORY_ORDER if c in by_cat]
    noun = " ".join(words + [name]) if words else name
    return f"{_article(noun)} {noun}"


def _build_captions(
    rng: np.random.Generator,
    config: SynthConfig,
    objects: Sequence[tuple[str, int, list[tuple[str, str]]]],
    cooccurring: set[str],
    facts: CaptionFacts,
) -> list[str]:
    captions: list[str] = []
    n_captions = int(rng.integers(config.captions_min, config.captions_max + 1))
    connectors = [" and ", " and ", " next to ", " near ", " beside "]
    for _ in range(n_captions):
        parts = []
        for name, class_index, attrs in objects:
            facts.mentioned_classes.add(class_index)
            mentioned = []
            for cat, val in attrs:
                forced = cat == "color" and name in cooccurring
                if forced or rng.random() < config.attr_mention_prob:
                    mentioned.append((cat, val))
                    facts.mentioned_pairs.add((class_index, cat, val))
            parts.append(_phrase(name, mentioned))
        sentence = parts[0]
        for part in parts[1:]:
            sentence += connectors[int(rng.integers(len(connectors)))] + part
        caption = sentence + "."
        # occasionally restate one attribute as a copula sentence
        if rng.random() < 0.3:
            name, class_index, attrs = objects[int(rng.integers(len(objects)))]
            if attrs:
                cat, val = attrs[int(rng.integers(len(attrs)))]
                caption += f" the {name} is {val}."
                facts.mentioned_pairs.add((class_index, cat, val))
        captions.append(caption)
    return captions


def generate_scene(
    universe: Universe, image_id: str, stream_key: Sequence[int]
) -> tuple[SyntheticScene, CaptionFacts]:
    """Build one scene from its own RNG stream; deterministic in the key."""
    config = universe.config
    rng = np.random.default_rng(list(stream_key))
    class_index = {n: i for i, n in enumerate(config.class_names)}

    objects = [
        (name, class_index[name], _sample_attributes(rng, config, name)) for name in _sample_classes(rng, config)
    ]
    # confusable partners present together; their captions always state the color, which the disjoint pools make differ
    present = {name for name, _, _ in objects}
    cooccurring = {name for name in present if config.partners.get(name) in present}

    gt: list[GroundTruth] = []
    boxes: list[Sequence[float]] = []
    bases: list[np.ndarray] = []  # each object's feature center, then the background's
    # row i holds proposal i's noise, drawn where its box is, and then its features
    features = np.empty((len(objects) * config.jitters_per_gt + config.background_boxes, config.feature_dim))
    for name, c_idx, attrs in objects:
        gt_box = _sample_box(rng, 0.18, 0.38, margin=0.35)
        gt.append(GroundTruth(box=gt_box, class_index=c_idx, attributes=list(attrs)))
        base = universe.class_prototypes[c_idx].copy()
        for cat, val in attrs:
            base = base + universe.attribute_prototypes[(cat, val)]
        bases.append(base)
        for j in range(config.jitters_per_gt):
            target = 0.55 + (0.85 - 0.55) * rng.random() if j == 0 else 0.3 + (0.9 - 0.3) * rng.random()
            boxes.append(_jitter_box(rng, gt_box, target))
            rng.standard_normal(out=features[len(boxes) - 1])
    bases.append(universe.background_prototype)
    for _ in range(config.background_boxes):
        boxes.append(_sample_box(rng, 0.08, 0.25, margin=0.0))
        rng.standard_normal(out=features[len(boxes) - 1])
    # in place: sigma * noise + base has the bits of base + sigma * noise, as IEEE addition commutes
    features *= config.noise_sigma
    features += np.repeat(np.stack(bases), [config.jitters_per_gt] * len(objects) + [config.background_boxes], axis=0)

    facts = CaptionFacts()
    captions = _build_captions(rng, config, objects, cooccurring, facts)
    proposals = RegionSet(boxes=np.array(boxes, dtype=float), features=features)
    return SyntheticScene(image_id=image_id, gt=gt, proposals=proposals, captions=captions), facts


def scene_stream(
    universe: Universe, num_scenes: int, seed_key: Sequence[int], id_prefix: str = "scene"
) -> Iterator[SyntheticScene]:
    """num_scenes scenes in order, each generated as it is read; scene i draws from the stream keyed by seed_key + [i]."""
    if num_scenes < 1:
        raise ValueError(f"num_scenes must be positive, got {num_scenes}")
    return (generate_scene(universe, f"{id_prefix}-{i:06d}", [*seed_key, i])[0] for i in range(num_scenes))


def gen_dataset(
    universe: Universe, num_scenes: int, seed_key: Sequence[int], id_prefix: str = "scene"
) -> list[SyntheticScene]:
    """scene_stream's scenes, as a list."""
    return list(scene_stream(universe, num_scenes, seed_key, id_prefix))


def universe_fingerprint(universe: Universe) -> str:
    """16 hex digits of a sha256 over the attribute keys, then the class, attribute and background prototypes as <f8.

    Attributes come in registry order, the order make_universe draws them in.
    """
    keys = json.dumps([list(key) for key in universe.attribute_prototypes]).encode()
    prototypes = [universe.class_prototypes, *universe.attribute_prototypes.values(), universe.background_prototype]
    return hashlib.sha256(keys + np.concatenate(prototypes, axis=None).astype("<f8").tobytes()).hexdigest()[:16]


def dataset_header(universe: Universe, scenes: int) -> dict:
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "feature_dim": universe.config.feature_dim,
        "class_names": list(universe.class_names),
        "confusable_pairs": [list(p) for p in universe.config.confusable_pairs],
        "universe": universe_fingerprint(universe),
        "scenes": scenes,
    }


def write_jsonl(path: str | Path, records: Iterable[object]) -> None:
    """Write each record as one sort_keys JSON line, the whole file or none of it (fields.whole_file)."""
    with whole_file(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, text) for each non-blank line of a UTF-8 file, one line at a time.

    Lines are split and numbered as text mode splits them, blank ones
    counted too. Each line is decoded on its own, so an undecodable byte is
    a DataError naming its line; a strict text-mode read decodes in chunks
    and cannot say which line failed.
    """
    with naming(f"cannot read {path}", (OSError,)):
        f = open(path, encoding="utf-8", errors="surrogateescape")
    with f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            with naming(f"{path}: line {lineno}: not UTF-8", (UnicodeDecodeError,)):
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            yield lineno, line


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, JSON value) for each non-blank line of path (see read_lines)."""
    for lineno, line in read_lines(path):
        with naming(f"{path}: line {lineno}: not a JSON record", JSON_ERRORS):
            value = json.loads(line)
        yield lineno, value


def write_dataset(path: str | Path, scenes: Iterable[SyntheticScene], universe: Universe, count: int | None = None) -> None:
    """Write a dataset file of count scenes, len(scenes) if count is None, as each scene is read from scenes.

    If scenes holds another number, a ValueError, and path is left as it was (fields.whole_file).
    """
    count = len(scenes) if count is None else count
    written = 0
    with whole_file(path) as f:
        f.write(json.dumps(dataset_header(universe, count), sort_keys=True).encode() + b"\n")
        for scene in scenes:
            record, payload = scene.to_record()
            f.write(json.dumps(record, sort_keys=True).encode() + b"\n")
            f.write(payload)
            written += 1
        if written != count:
            raise ValueError(f"{path}: the header counts {count} scenes, but {written} were given")


def _checked_header(header: object) -> dict:
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_NAME:
        raise ValueError(f"expected schema {SCHEMA_NAME!r} version {SCHEMA_VERSION}")
    if not HEADER_FIELDS["version"].check(header.get("version")):
        raise ValueError(f"expected schema {SCHEMA_NAME!r} version {SCHEMA_VERSION}, got version {header.get('version')!r}")
    header = check_fields(header, HEADER_FIELDS, "header")
    names = header["class_names"]
    for pair in header["confusable_pairs"]:
        if not (isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1] and all(n in names for n in pair)):
            raise ValueError(f"confusable pair {pair!r} is not two distinct names from class_names")
    return header


def _json_line(line: bytes) -> object:
    """The JSON value of one whole line: strict UTF-8, then json.loads."""
    if not line.endswith(b"\n"):
        raise ValueError("the file ends inside this line")
    with naming("not UTF-8", (UnicodeDecodeError,)):
        text = line.decode("utf-8")
    with naming("not JSON", JSON_ERRORS):
        return json.loads(text)


def read_dataset(path: str | Path) -> tuple[dict | None, list[SyntheticScene]]:
    """The checked header and the scenes of a dataset file, in one pass; an empty file gives (None, []).

    A failure is a DataError naming the file and `header` or `scene N`, N
    counted from 1. A payload's size is checked against the bytes the file
    has left before it is read, so no record makes this allocate more than
    the file holds.
    """
    # a file that cannot be opened, or a pipe (whose position cannot be told), is named too
    with naming(f"cannot read {path}", (OSError,)), open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        line = f.readline()
        if not line:
            return None, []
        with naming(f"{path}: header"):
            header = _checked_header(_json_line(line))

        def read_payload(nbytes: int) -> bytes:
            left = size - f.tell()
            if nbytes > left:
                raise ValueError(f"the payload needs {nbytes} bytes, and the file has {left} left")
            return f.read(nbytes)

        count, scenes = header["scenes"], []
        for n in range(1, count + 1):
            line = f.readline()
            if not line:
                raise DataError(f"{path}: the file ends after {n - 1} of its {count} scenes")
            with naming(f"{path}: scene {n}", (ValueError, OverflowError)):
                record = _json_line(line)
                scenes.append(SyntheticScene.from_record(record, read_payload, len(header["class_names"]), header["feature_dim"]))
        if size > f.tell():
            raise DataError(f"{path}: the file goes on after the last of its {count} scenes, {size - f.tell()} bytes more")
    return header, scenes


def load_dataset(path: str | Path) -> list[SyntheticScene]:
    """The scenes of a dataset file (see read_dataset); an empty file is an empty dataset."""
    return read_dataset(path)[1]


def benchmark_vocabulary(class_names: Sequence[str]) -> Vocabulary:
    """Vocabulary over the benchmark's canonical class names, no synonyms."""
    return Vocabulary(class_names)
