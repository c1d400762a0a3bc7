"""Rule-based scene graphs from captions, and per-image label extraction.

A caption is reduced to the pieces the detector can supervise on: which
vocabulary classes are mentioned, which attribute values modify them, and
(inert, for bookkeeping only) prepositional relations between mentions.
The rules are a deliberate approximation: lowercase tokens, a small
suffix-stripping lemmatizer, bigram-then-unigram matching against the
class vocabulary, and two adjective attachment patterns (prenominal
sequences and "X is/are ADJ" copulas). Words outside the attribute
registry never produce labels. Only parse_scene_graph finds relations;
label extraction skips them.

Each JSON input is checked against a field table (fields.check_fields):
VOCABULARY_FIELDS, REGISTRY_FIELDS and, per category, CATEGORY_FIELDS,
and CAPTION_FIELDS per caption record. The classes check the rest: words,
repeats, and the targets of synonyms and aliases. from_file names its file.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .fields import JSON_ERRORS, Field, check_fields, is_str_list, naming

_WORD_RE = re.compile(r"[a-z]+")

_DETERMINERS = frozenset(
    "a an the this that these those its his her their our some any no one two three "
    "four five six seven eight nine ten several many few each every all both another".split()
)
_COPULAS = frozenset("is are was were".split())
_PREPOSITIONS = frozenset(
    "on in under over above below near behind beside by against at with inside "
    "outside around along across beneath underneath atop upon to of".split()
)
# Multi-word predicates are matched before single tokens, longest first.
_MULTIWORD_PREPOSITIONS = (
    ("in", "front", "of"),
    ("on", "top", "of"),
    ("next", "to"),
    ("close", "to"),
)
# Tokens that neither stop nor contribute to an adjective scan.
_CONNECTORS = frozenset("and very quite really".split())
# An adjective scan looks at most this many tokens away from its noun.
_MAX_MODIFIER_SPAN = 4

_LEMMA_EXCEPTIONS = {
    "men": "man",
    "women": "woman",
    "children": "child",
    "people": "person",
    "mice": "mouse",
    "geese": "goose",
    "feet": "foot",
    "teeth": "tooth",
    "sheep": "sheep",
    "buses": "bus",
    "knives": "knife",
    "leaves": "leaf",
    "shelves": "shelf",
    "wolves": "wolf",
    "scarves": "scarf",
}
# Singulars that happen to end in s and must never be stripped.
_NO_STRIP = frozenset(
    "bus gas glass grass dress class is was this its his hers ours theirs "
    "plus tennis lens series species news".split()
)


def lemmatize(token: str) -> str:
    """Map a lowercase token to a crude singular form.

    Suffix rules only: "ies" -> "y", strip "es" after sibilants, strip a
    final "s" otherwise, with a small exception table for irregulars.
    """
    if token in _LEMMA_EXCEPTIONS:
        return _LEMMA_EXCEPTIONS[token]
    if token in _NO_STRIP:
        return token
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    if token.endswith("es") and len(token) > 3 and token[:-2].endswith(("s", "x", "z", "ch", "sh")):
        return token[:-2]
    if token.endswith("s") and len(token) > 3 and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    return token


def tokenize(caption: str) -> list[str]:
    """Lowercase alphabetic tokens; punctuation and digits are separators."""
    return _WORD_RE.findall(caption.lower())


class Vocabulary:
    """Detector classes plus surface synonyms. Background is the implicit last index."""

    def __init__(self, class_names: Sequence[str], synonyms: Mapping[str, str] | None = None):
        names = [str(n).strip().lower() for n in class_names]
        if not names:
            raise ValueError("vocabulary needs at least one class")
        if len(set(names)) != len(names):
            raise ValueError("duplicate class names")
        self.class_names: tuple[str, ...] = tuple(names)
        self._index = {n: i for i, n in enumerate(names)}
        self.synonyms: dict[str, int] = {}
        for surface, target in (synonyms or {}).items():
            surface = str(surface).strip().lower()
            target = str(target).strip().lower()
            if target not in self._index:
                raise ValueError(f"synonym {surface!r} maps to unknown class {target!r}")
            if surface in self._index:
                raise ValueError(f"synonym {surface!r} collides with a class name")
            self.synonyms[surface] = self._index[target]
        # token-tuple lookup used by the parser, which splits captions into words
        # of the letters a-z, lemmatizes them and matches two-word phrases, then
        # single words, so any other phrase would never match
        self._phrase_index: dict[tuple[str, ...], int] = {}
        for phrase, idx in (*self._index.items(), *self.synonyms.items()):
            words = tuple(phrase.split())
            if not 1 <= len(words) <= 2 or not all(_WORD_RE.fullmatch(w) for w in words):
                raise ValueError(f"class names and synonyms must be one or two words of the letters a-z, got {phrase!r}")
            if any(lemmatize(w) != w for w in words):
                raise ValueError(f"captions are matched by lemma, so {phrase!r} would never match: write its words as lemmas")
            self._phrase_index[words] = idx

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def match_phrase(self, lemmas: tuple[str, ...]) -> int | None:
        return self._phrase_index.get(lemmas)

    @staticmethod
    def from_file(path: str | Path) -> "Vocabulary":
        with naming(f"bad vocabulary file {path}", (OSError, *JSON_ERRORS)), open(path, encoding="utf-8") as f:
            data = check_fields(json.load(f), VOCABULARY_FIELDS, "vocabulary")
            return Vocabulary(data["classes"], data["synonyms"])


class AttributeRegistry:
    """Attribute categories, their value sets, and the word -> (category, value) map.

    Values within one category are mutually exclusive per object. Every
    value word maps to itself; aliases may add extra surface forms, but
    no word may map to two targets. The parser looks up single caption
    words of the letters a-z, so values and aliases must be such words.
    """

    def __init__(
        self,
        categories: Sequence[tuple[str, Sequence[str]]],
        aliases: Mapping[str, tuple[str, str]] | None = None,
    ):
        self.categories: tuple[str, ...] = tuple(name for name, _ in categories)
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("duplicate category names")
        if not self.categories:
            raise ValueError("registry needs at least one category")
        self.values: dict[str, tuple[str, ...]] = {}
        self.word_map: dict[str, tuple[str, str]] = {}
        for name, vals in categories:
            vals = tuple(str(v).strip().lower() for v in vals)
            if not vals or len(set(vals)) != len(vals):
                raise ValueError(f"category {name!r} needs a non-empty list of distinct values")
            self.values[name] = vals
            for v in vals:
                if v in self.word_map:
                    raise ValueError(f"attribute word {v!r} appears in two categories")
                self.word_map[v] = (name, v)
        for word, (cat, val) in (aliases or {}).items():
            word = str(word).strip().lower()
            if cat not in self.values or val not in self.values[cat]:
                raise ValueError(f"alias {word!r} targets unknown value ({cat!r}, {val!r})")
            if word in self.word_map:
                raise ValueError(f"alias {word!r} collides with an existing attribute word")
            self.word_map[word] = (cat, val)
        for word in self.word_map:
            if not _WORD_RE.fullmatch(word):
                raise ValueError(f"attribute word {word!r} is not one word of the letters a-z, so no caption word matches it")

    def lookup(self, word: str) -> tuple[str, str] | None:
        return self.word_map.get(word)

    @staticmethod
    def from_file(path: str | Path) -> "AttributeRegistry":
        with naming(f"bad registry file {path}", (OSError, *JSON_ERRORS)), open(path, encoding="utf-8") as f:
            data = check_fields(json.load(f), REGISTRY_FIELDS, "registry")
            cats = [check_fields(c, CATEGORY_FIELDS, "registry category") for c in data["categories"]]
            return AttributeRegistry([(c["name"], c["values"]) for c in cats], {w: tuple(t) for w, t in data["aliases"].items()})


VOCABULARY_FIELDS = {
    "classes": Field(is_str_list, "a list of strings"),
    "synonyms": Field(lambda v: isinstance(v, dict) and is_str_list(list(v.values())), "an object mapping words to class names", {}),
}
REGISTRY_FIELDS = {
    "categories": Field(lambda v: isinstance(v, list) and all(isinstance(c, dict) for c in v), "a list of category objects"),
    "aliases": Field(
        lambda v: isinstance(v, dict) and all(is_str_list(t) and len(t) == 2 for t in v.values()),
        "an object mapping words to [category, value] lists",
        {},
    ),
}
CATEGORY_FIELDS = {"name": Field(lambda v: isinstance(v, str), "a string"), "values": Field(is_str_list, "a list of strings")}
CAPTIONS = Field(lambda v: is_str_list(v) and len(v) > 0 and all(c.strip() for c in v), "a non-empty list of non-blank strings")
# the id is echoed into the label record, so it must be one JSON can carry back
CAPTION_FIELDS = {"image_id": Field(lambda v: type(v) in (str, int), "a string or an integer"), "captions": CAPTIONS}


def default_vocabulary() -> Vocabulary:
    return Vocabulary.from_file(resources.files("capdet.data") / "vocab.json")


def default_registry() -> AttributeRegistry:
    return AttributeRegistry.from_file(resources.files("capdet.data") / "registry.json")


@dataclass
class TextualSceneGraph:
    """Parsed view of one caption.

    objects holds (surface form, class index) per matched mention, in
    caption order; text that matches no class makes no entry. attributes
    and relations refer to objects by position. Relations are inert
    metadata; nothing downstream trains on them.
    """

    objects: list[tuple[str, int]] = field(default_factory=list)
    attributes: list[tuple[int, str, str]] = field(default_factory=list)
    relations: list[tuple[int, str, int]] = field(default_factory=list)


@dataclass
class LabelSet:
    """Image-level supervision: mentioned classes and their attribute pairs."""

    objects: set[int] = field(default_factory=set)
    attribute_pairs: dict[int, set[tuple[str, str]]] = field(default_factory=dict)

    def pairs_for(self, class_index: int) -> list[tuple[str, str]]:
        return sorted(self.attribute_pairs.get(class_index, ()))

    def to_record(self, image_id: str) -> dict:
        return {
            "image_id": image_id,
            "objects": sorted(self.objects),
            "attributes": [
                [c, cat, val]
                for c in sorted(self.attribute_pairs)
                for cat, val in sorted(self.attribute_pairs[c])
            ],
        }


@dataclass
class ParseStats:
    unknown_modifiers: int = 0


def _find_objects(lemmas: list[str], tokens: list[str], vocab: Vocabulary):
    """Greedy left-to-right matching; two-token names take priority over one-token."""
    matches: list[tuple[int, int, str, int]] = []  # (start, length, surface, class index)
    occupied = [False] * len(lemmas)
    i = 0
    while i < len(lemmas):
        idx = None
        length = 0
        if i + 1 < len(lemmas):
            idx = vocab.match_phrase((lemmas[i], lemmas[i + 1]))
            length = 2
        if idx is None:
            idx = vocab.match_phrase((lemmas[i],))
            length = 1
        if idx is None:
            i += 1
            continue
        matches.append((i, length, " ".join(tokens[i : i + length]), idx))
        for k in range(i, i + length):
            occupied[k] = True
        i += length
    return matches, occupied


def _scan_modifiers(
    lemmas: list[str],
    tokens: list[str],
    occupied: list[bool],
    start: int,
    step: int,
    registry: AttributeRegistry,
    stats: ParseStats,
) -> list[tuple[str, str]]:
    """Collect registry words walking from `start` in direction `step`.

    Determiners, prepositions, copulas and other object mentions end the
    scan; connectors pass through; anything else is treated as a modifier
    we do not know and is dropped (counted for reporting).
    """
    found: list[tuple[str, str]] = []
    k = start
    span = 0
    while 0 <= k < len(lemmas) and span < _MAX_MODIFIER_SPAN:
        if occupied[k]:
            break
        raw, lemma = tokens[k], lemmas[k]
        hit = registry.lookup(raw) or registry.lookup(lemma)
        if hit is not None:
            found.append(hit)
        elif raw in _CONNECTORS:
            pass
        elif raw in _DETERMINERS or raw in _PREPOSITIONS or raw in _COPULAS:
            break
        else:
            stats.unknown_modifiers += 1
        k += step
        span += 1
    if step < 0:
        found.reverse()  # report prenominal modifiers in caption order
    return found


def _find_prepositions(tokens: list[str]) -> list[tuple[int, int, str]]:
    spans: list[tuple[int, int, str]] = []
    i = 0
    while i < len(tokens):
        matched = False
        for phrase in _MULTIWORD_PREPOSITIONS:
            n = len(phrase)
            if tuple(tokens[i : i + n]) == phrase:
                spans.append((i, i + n, " ".join(phrase)))
                i += n
                matched = True
                break
        if matched:
            continue
        if tokens[i] in _PREPOSITIONS and tokens[i] not in ("to", "of"):
            spans.append((i, i + 1, tokens[i]))
        i += 1
    return spans


def _parse_mentions(
    caption: str, vocab: Vocabulary, registry: AttributeRegistry, stats: ParseStats
) -> tuple[TextualSceneGraph, list[str], list[tuple[int, int, str, int]]]:
    """A caption's graph without relations, plus its tokens and object matches, which relations read."""
    if not caption or not caption.strip():
        raise ValueError("caption must be non-empty")
    tokens = tokenize(caption)
    lemmas = [lemmatize(t) for t in tokens]
    matches, occupied = _find_objects(lemmas, tokens, vocab)

    graph = TextualSceneGraph()
    graph.objects = [(surface, idx) for _, _, surface, idx in matches]

    taken: list[set[str]] = [set() for _ in matches]
    for obj_pos, (start, length, _, _) in enumerate(matches):
        mods = _scan_modifiers(lemmas, tokens, occupied, start - 1, -1, registry, stats)
        end = start + length
        if end < len(tokens) and tokens[end] in _COPULAS:
            mods += _scan_modifiers(lemmas, tokens, occupied, end + 1, +1, registry, stats)
        for cat, val in mods:
            if cat not in taken[obj_pos]:
                taken[obj_pos].add(cat)
                graph.attributes.append((obj_pos, cat, val))
    return graph, tokens, matches


def _find_relations(tokens: list[str], matches: list[tuple[int, int, str, int]]) -> list[tuple[int, str, int]]:
    """(subject, predicate, object) per preposition between the nearest mention before it and the first after it."""
    relations = []
    for p_start, p_end, predicate in _find_prepositions(tokens):
        subject = None
        obj = None
        for pos, (start, length, _, _) in enumerate(matches):
            if start + length <= p_start:
                subject = pos
            if obj is None and start >= p_end:
                obj = pos
        if subject is not None and obj is not None and subject != obj:
            relations.append((subject, predicate, obj))
    return relations


def parse_scene_graph(caption: str, vocab: Vocabulary, registry: AttributeRegistry) -> TextualSceneGraph:
    """Parse one caption. Text with no known object yields an empty graph; blank text is a ValueError."""
    graph, tokens, matches = _parse_mentions(caption, vocab, registry, ParseStats())
    graph.relations = _find_relations(tokens, matches)
    return graph


def extract_labels(
    captions: Iterable[str],
    vocab: Vocabulary,
    registry: AttributeRegistry,
    stats: ParseStats | None = None,
) -> LabelSet:
    """Union of per-caption graphs, reduced to class-level supervision.

    Text that matches no vocabulary class yields no label. Within each (class, category) the
    first value seen wins, scanning captions in order; later conflicting
    mentions are dropped. Relations supervise nothing, so they are not parsed.
    """
    captions = list(captions)
    if not captions:
        raise ValueError("need at least one caption")
    stats = stats if stats is not None else ParseStats()
    labels = LabelSet()
    claimed: set[tuple[int, str]] = set()
    for caption in captions:
        graph, _, _ = _parse_mentions(caption, vocab, registry, stats)
        labels.objects.update(idx for _, idx in graph.objects)
        for pos, cat, val in graph.attributes:
            c = graph.objects[pos][1]
            if (c, cat) in claimed:
                continue
            claimed.add((c, cat))
            labels.attribute_pairs.setdefault(c, set()).add((cat, val))
    return labels
