import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capdet.synthbench import DataError, read_jsonl, write_jsonl
from capdet.textgraph import (
    AttributeRegistry,
    LabelSet,
    ParseStats,
    Vocabulary,
    default_registry,
    default_vocabulary,
    extract_labels,
    lemmatize,
    parse_scene_graph,
    tokenize,
)


@pytest.fixture(scope="module")
def vocab():
    return default_vocabulary()


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestLemmatize:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("apples", "apple"),
            ("boxes", "box"),
            ("dishes", "dish"),
            ("puppies", "puppy"),
            ("cats", "cat"),
            ("glass", "glass"),
            ("glasses", "glass"),
            ("bus", "bus"),
            ("is", "is"),
            ("this", "this"),
            ("children", "child"),
            ("mice", "mouse"),
            ("men", "man"),
            ("women", "woman"),
            ("apple", "apple"),
        ],
    )
    def test_cases(self, word, expected):
        assert lemmatize(word) == expected

    def test_idempotent(self):
        words = ["apples", "dishes", "puppies", "glasses", "children", "dogs"]
        for w in words:
            once = lemmatize(w)
            assert lemmatize(once) == once


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("A Red APPLE, next to the pear!") == [
            "a", "red", "apple", "next", "to", "the", "pear",
        ]

    def test_empty(self):
        assert tokenize("...") == []


class TestVocabulary:
    def test_synonym_maps_to_same_index(self, vocab):
        assert vocab.match_phrase(("kitty",)) == vocab.match_phrase(("cat",))
        assert vocab.match_phrase(("mug",)) == vocab.match_phrase(("cup",))

    def test_multiword_class(self, vocab):
        idx = vocab.match_phrase(("stop", "sign"))
        assert idx is not None
        assert vocab.class_names[idx] == "stop sign"
        assert vocab.match_phrase(("stopsign",)) == idx

    def test_plural_match(self, vocab):
        # match_phrase takes lemmas; plural folding happens upstream
        assert vocab.match_phrase((lemmatize("apples"),)) == vocab.match_phrase(("apple",))

    def test_unknown(self, vocab):
        assert vocab.match_phrase(("zebra",)) is None

    def test_duplicate_class_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("cat", "cat"))

    def test_synonym_to_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("cat",), {"pup": "dog"})

    @pytest.mark.parametrize(
        "classes, synonyms",
        [
            (("fire hydrant cap", "dog"), {}),
            (("fire hydrant", "dog"), {"red fire hydrant": "fire hydrant"}),
            (("dog",), {" ": "dog"}),
            (("shirt",), {"t-shirt": "shirt"}),
            (("r2d2",), {}),
        ],
    )
    def test_phrase_the_parser_cannot_match_rejected(self, classes, synonyms):
        # the parser splits captions into words of the letters a-z and matches two-word phrases, then single words
        with pytest.raises(ValueError, match="one or two words of the letters a-z"):
            Vocabulary(classes, synonyms)

    @pytest.mark.parametrize(
        "classes, synonyms",
        [(("glasses", "dog"), {}), (("dog",), {"puppies": "dog"}), (("bus stops",), {}), (("people",), {})],
    )
    def test_name_that_is_not_its_own_lemma_rejected(self, classes, synonyms):
        # captions are matched by lemma: "glasses" in a caption is looked up as "glass"
        with pytest.raises(ValueError, match="matched by lemma"):
            Vocabulary(classes, synonyms)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"classes": ["cat", "stop sign"], "synonyms": {"kitty": "cat"}}))
        loaded = Vocabulary.from_file(path)
        assert loaded.class_names == ("cat", "stop sign")
        assert loaded.match_phrase(("kitty",)) == loaded.match_phrase(("cat",)) == 0


class TestAttributeRegistry:
    def test_lookup_value(self, registry):
        assert registry.lookup("red") == ("color", "red")
        assert registry.lookup("wooden") == ("material", "wooden")

    def test_alias(self, registry):
        assert registry.lookup("big") == ("size", "large")
        assert registry.lookup("crimson") == ("color", "red")

    def test_unknown(self, registry):
        assert registry.lookup("fast") is None

    def test_duplicate_word_across_categories_rejected(self):
        with pytest.raises(ValueError, match="attribute word 'red' appears in two categories"):
            AttributeRegistry([("color", ("red",)), ("flavor", ("red",))])

    def test_alias_to_unknown_value_rejected(self):
        with pytest.raises(ValueError, match=r"alias 'scarlet' targets unknown value \('color', 'blue'\)"):
            AttributeRegistry([("color", ("red",))], {"scarlet": ("color", "blue")})


class TestParseCaption:
    def test_reference_caption_one(self, vocab, registry):
        graph = parse_scene_graph(
            "a red apple next to the pear", vocab, registry,
        )
        names = [vocab.class_names[i] for _, i in graph.objects]
        assert names == ["apple", "pear"]
        apple_pos = names.index("apple")
        assert (apple_pos, "color", "red") in graph.attributes
        assert len(graph.attributes) == 1
        assert len(graph.relations) == 1
        subj, pred, obj = graph.relations[0]
        assert (names[subj], pred, names[obj]) == ("apple", "next to", "pear")

    def test_reference_caption_two(self, vocab, registry):
        graph = parse_scene_graph("the stop sign is red", vocab, registry)
        names = [vocab.class_names[i] for _, i in graph.objects]
        assert names == ["stop sign"]
        assert graph.attributes == [(0, "color", "red")]
        assert graph.relations == []

    def test_stacked_prenominal_modifiers(self, vocab, registry):
        graph = parse_scene_graph("a large brown cat", vocab, registry)
        attrs = {(cat, val) for _, cat, val in graph.attributes}
        assert attrs == {("size", "large"), ("color", "brown")}

    def test_modifier_order_preserved(self, vocab, registry):
        # both words name colors; caption order decides which one is
        # reported first so first-occurrence wins downstream
        graph = parse_scene_graph("a red green apple", vocab, registry)
        colors = [val for _, cat, val in graph.attributes if cat == "color"]
        assert colors[0] == "red"

    def test_mutual_exclusivity_within_category(self, vocab, registry):
        graph = parse_scene_graph("a red green apple", vocab, registry)
        # one value per category per object
        seen = {}
        for pos, cat, val in graph.attributes:
            assert (pos, cat) not in seen
            seen[(pos, cat)] = val
        assert seen[(0, "color")] == "red"

    def test_copula_scan(self, vocab, registry):
        graph = parse_scene_graph("the cat is small and black", vocab, registry)
        attrs = {(cat, val) for _, cat, val in graph.attributes}
        assert attrs == {("size", "small"), ("color", "black")}

    def test_copula_plural(self, vocab, registry):
        graph = parse_scene_graph("the apples are red", vocab, registry)
        assert (0, "color", "red") in graph.attributes

    def test_unknown_modifier_counted_not_fatal(self, vocab, registry):
        graph = parse_scene_graph("a shiny red apple", vocab, registry)
        assert (0, "color", "red") in graph.attributes
        stats = ParseStats()
        extract_labels(["a shiny red apple"], vocab, registry, stats)
        assert stats.unknown_modifiers == 1

    def test_alias_modifier(self, vocab, registry):
        graph = parse_scene_graph("a big dog", vocab, registry)
        assert (0, "size", "large") in graph.attributes

    def test_connector_does_not_block(self, vocab, registry):
        graph = parse_scene_graph("the bowl is very large", vocab, registry)
        assert (0, "size", "large") in graph.attributes

    def test_determiner_blocks_scan(self, vocab, registry):
        # "red" belongs to apple, not pear: determiner stops the backward scan
        graph = parse_scene_graph("a red apple and a pear", vocab, registry)
        names = [vocab.class_names[i] for _, i in graph.objects]
        pear_pos = names.index("pear")
        assert not any(pos == pear_pos for pos, _, _ in graph.attributes)

    def test_relation_multiword_preposition(self, vocab, registry):
        graph = parse_scene_graph(
            "the cup is on top of the chair", vocab, registry,
        )
        assert len(graph.relations) == 1
        assert graph.relations[0][1] == "on top of"

    def test_relation_simple_preposition(self, vocab, registry):
        graph = parse_scene_graph("a cat on a chair", vocab, registry)
        assert graph.relations == [(0, "on", 1)]

    def test_bigram_takes_priority(self, vocab, registry):
        # "stop sign" must not leave a stray unmatched "sign" token
        graph = parse_scene_graph("a red stop sign", vocab, registry)
        names = [vocab.class_names[i] for _, i in graph.objects]
        assert names == ["stop sign"]
        assert (0, "color", "red") in graph.attributes

    def test_blank_caption_rejected(self, vocab, registry):
        with pytest.raises(ValueError):
            parse_scene_graph("   ", vocab, registry)

    def test_unmatched_nouns_do_not_create_objects(self, vocab, registry):
        graph = parse_scene_graph("a zebra near the dog", vocab, registry)
        matched = [i for _, i in graph.objects]
        assert len(matched) == 1


class TestExtractLabels:
    def test_union_across_captions(self, vocab, registry):
        labels = extract_labels(
            ["a red apple", "a small cup"], vocab, registry,
        )
        apple = vocab.match_phrase(("apple",))
        cup = vocab.match_phrase(("cup",))
        assert labels.objects == {apple, cup}
        assert labels.pairs_for(apple) == [("color", "red")]
        assert labels.pairs_for(cup) == [("size", "small")]

    def test_first_occurrence_wins_across_captions(self, vocab, registry):
        labels = extract_labels(
            ["a red apple", "a green apple"], vocab, registry,
        )
        apple = vocab.match_phrase(("apple",))
        assert labels.pairs_for(apple) == [("color", "red")]

    def test_first_occurrence_wins_within_caption(self, vocab, registry):
        labels = extract_labels(["a red green apple"], vocab, registry)
        apple = vocab.match_phrase(("apple",))
        assert labels.pairs_for(apple) == [("color", "red")]

    def test_different_categories_both_kept(self, vocab, registry):
        labels = extract_labels(
            ["a red apple", "a small apple"], vocab, registry,
        )
        apple = vocab.match_phrase(("apple",))
        assert set(labels.pairs_for(apple)) == {("color", "red"), ("size", "small")}

    def test_object_without_attributes(self, vocab, registry):
        labels = extract_labels(["a cat and a dog"], vocab, registry)
        cat = vocab.match_phrase(("cat",))
        dog = vocab.match_phrase(("dog",))
        assert labels.objects == {cat, dog}
        assert labels.pairs_for(cat) == []

    def test_empty_caption_list_rejected(self, vocab, registry):
        with pytest.raises(ValueError):
            extract_labels([], vocab, registry)

    def test_no_known_objects_gives_empty_set(self, vocab, registry):
        labels = extract_labels(["a zebra in the grass"], vocab, registry)
        assert labels.objects == set()


def label_set_from_record(record):
    labels = LabelSet(objects=set(int(c) for c in record["objects"]))
    for c, cat, val in record.get("attributes", ()):
        labels.attribute_pairs.setdefault(int(c), set()).add((str(cat), str(val)))
    return labels


class TestLabelSerialization:
    def test_round_trip(self, vocab, registry, tmp_path):
        sets = [
            ("img0", extract_labels(["a red apple next to the pear"], vocab, registry)),
            ("img1", extract_labels(["the stop sign is red"], vocab, registry)),
        ]
        path = tmp_path / "labels.jsonl"
        write_jsonl(path, [ls.to_record(img) for img, ls in sets])
        loaded = list(read_jsonl(path))
        assert [(lineno, r["image_id"]) for lineno, r in loaded] == [(1, "img0"), (2, "img1")]
        for (_, a), (_, record) in zip(sets, loaded):
            b = label_set_from_record(record)
            assert a.objects == b.objects
            assert a.attribute_pairs == b.attribute_pairs

    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"image_id": "a", "objects": [0], "attributes": {}}\nnot json\n')
        with pytest.raises(DataError) as info:
            list(read_jsonl(path))
        assert str(info.value).startswith(f"{path}: line 2: not a JSON record: ")


class TestLabelSet:
    def test_pairs_for_sorted(self):
        ls = LabelSet(
            objects={0},
            attribute_pairs={0: {("size", "small"), ("color", "red")}},
        )
        assert ls.pairs_for(0) == [("color", "red"), ("size", "small")]

    def test_missing_object_empty(self):
        ls = LabelSet(objects={1}, attribute_pairs={})
        assert ls.pairs_for(1) == []


# caption text: arbitrary unicode, or words that steer the parser into its
# matching, modifier and preposition paths, joined by assorted separators
_REGISTRY = default_registry()
_WORDS = sorted(
    {w for name in default_vocabulary().class_names for w in name.split()}
    | {v for values in _REGISTRY.values.values() for v in values}
    | {"apples", "is", "are", "a", "the", "and", "very", "on", "next", "to", "of", "in", "front", "glossy", "Red"}
)
_CAPTIONS = st.one_of(
    st.text(min_size=1),
    st.lists(st.one_of(st.sampled_from(_WORDS), st.text(max_size=3)), min_size=1, max_size=12).flatmap(
        lambda words: st.sampled_from([" ", ",", "-", "\t", " . "]).map(lambda sep: sep.join(words))
    ),
).filter(lambda text: text.strip())


class TestParserNeverRaises:
    @settings(max_examples=300, deadline=None)
    @given(_CAPTIONS)
    def test_parse_scene_graph(self, caption):
        vocab = default_vocabulary()
        graph = parse_scene_graph(caption, vocab, _REGISTRY)
        assert all(0 <= idx < vocab.num_classes for _, idx in graph.objects)
        for pos, cat, val in graph.attributes:
            assert 0 <= pos < len(graph.objects) and val in _REGISTRY.values[cat]
        for subject, _, obj in graph.relations:
            assert 0 <= subject < len(graph.objects) and 0 <= obj < len(graph.objects)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_CAPTIONS, min_size=1, max_size=4))
    def test_extract_labels(self, captions):
        vocab = default_vocabulary()
        labels = extract_labels(captions, vocab, _REGISTRY)
        assert all(0 <= c < vocab.num_classes for c in labels.objects)
        assert set(labels.attribute_pairs) <= labels.objects
        for pairs in labels.attribute_pairs.values():
            assert all(val in _REGISTRY.values[cat] for cat, val in pairs)
