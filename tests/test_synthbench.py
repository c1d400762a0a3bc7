import base64
import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import synth_reference as reference
from capdet.geometry import iou_matrix
from capdet.synthbench import (
    DataError,
    SynthConfig,
    _decode_rows,
    _encode_rows,
    _jitter_box,
    benchmark_vocabulary,
    dataset_header,
    gen_dataset,
    generate_scene,
    load_dataset,
    make_universe,
    read_dataset,
    universe_fingerprint,
    write_dataset,
)
from capdet.textgraph import default_registry, extract_labels


def proposal_hit_exists(scene, threshold=0.5):
    """True when every GT box has at least one proposal overlapping it by >= threshold."""
    gt_boxes = np.reshape([g.box for g in scene.gt], (-1, 4))
    return bool((iou_matrix(gt_boxes, scene.proposals.boxes) >= threshold).any(axis=1).all())


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def universe(registry):
    return make_universe(SynthConfig(), registry, seed=0)


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig()

    def test_partner_lookup(self):
        partners = SynthConfig.partners
        assert partners["apple"] == "pear"
        assert partners["pear"] == "apple"
        assert "cat" not in partners

    def test_small_feature_dim_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(feature_dim=4)

    def test_only_the_four_settings_are_constructor_fields(self):
        assert [f.name for f in dataclasses.fields(SynthConfig)] == [
            "feature_dim", "noise_sigma", "attr_mention_prob", "cooccur_prob",
        ]
        with pytest.raises(TypeError):
            SynthConfig(max_objects=2)


class TestMakeUniverse:
    def test_deterministic(self, registry):
        a = make_universe(SynthConfig(), registry, seed=5)
        b = make_universe(SynthConfig(), registry, seed=5)
        assert np.array_equal(a.class_prototypes, b.class_prototypes)
        assert np.array_equal(a.background_prototype, b.background_prototype)

    def test_confusable_distance_constraint(self, universe):
        cfg = universe.config
        names = list(universe.class_names)
        delta = cfg.confusable_distance
        confusable = {frozenset(p) for p in cfg.confusable_pairs}
        protos = universe.class_prototypes
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                dist = np.linalg.norm(protos[i] - protos[j])
                if frozenset((names[i], names[j])) in confusable:
                    assert dist <= delta
                else:
                    assert dist >= 4.0 * delta
            assert np.linalg.norm(protos[i] - universe.background_prototype) >= 4.0 * delta

    def test_attribute_prototype_norm(self, universe, registry):
        cfg = universe.config
        for cat in registry.categories:
            for val in registry.values[cat]:
                norm = np.linalg.norm(universe.attribute_prototypes[(cat, val)])
                assert norm == pytest.approx(cfg.attribute_norm)

    def test_infeasible_raises(self, registry, monkeypatch):
        # six anchors (one per pair, one per free class) plus the background
        # need a pairwise gap of 5.5 * 0.3 = 1.65 on the unit sphere; seven
        # unit vectors can be at most sqrt(7/3) ~ 1.53 apart, so every draw fails
        monkeypatch.setattr(SynthConfig, "confusable_distance", 0.3)
        with pytest.raises(ValueError, match="separation"):
            make_universe(SynthConfig(feature_dim=8), registry, seed=0)


class TestJitterBox:
    @pytest.mark.parametrize("target", [0.3, 0.5, 0.55, 0.7, 0.85, 0.9])
    def test_exact_iou(self, target):
        rng = np.random.default_rng(17)
        gt = (0.2, 0.3, 0.55, 0.62)
        for _ in range(20):
            jittered = _jitter_box(rng, gt, target)
            assert iou_matrix([gt], [jittered])[0, 0] == pytest.approx(target, abs=1e-9)

    def test_same_size(self):
        rng = np.random.default_rng(18)
        gt = (0.1, 0.1, 0.4, 0.5)
        x_min, y_min, x_max, y_max = _jitter_box(rng, gt, 0.6)
        assert x_max - x_min == pytest.approx(0.3)
        assert y_max - y_min == pytest.approx(0.4)


class TestGenerateScene:
    def test_deterministic_in_stream_key(self, universe):
        a, _ = generate_scene(universe, "s0", [0, 0, 0])
        b, _ = generate_scene(universe, "s0", [0, 0, 0])
        assert a.to_record() == b.to_record()

    def test_different_index_different_scene(self, universe):
        a, _ = generate_scene(universe, "s0", [0, 0, 0])
        b, _ = generate_scene(universe, "s1", [0, 0, 1])
        assert a.captions != b.captions or a.proposals.boxes.tolist() != b.proposals.boxes.tolist()

    def test_proposal_counts(self, universe):
        cfg = universe.config
        for i in range(10):
            scene, _ = generate_scene(universe, f"s{i}", [3, 0, i])
            expected = len(scene.gt) * cfg.jitters_per_gt + cfg.background_boxes
            assert scene.proposals.size == expected
            assert 1 <= len(scene.gt) <= cfg.max_objects
            assert cfg.captions_min <= len(scene.captions) <= cfg.captions_max

    def test_every_gt_has_a_strong_proposal(self, universe):
        # the first jitter per GT targets IoU in [0.55, 0.85], so a 0.5
        # detection threshold is always attainable
        for i in range(50):
            scene, _ = generate_scene(universe, f"s{i}", [4, 0, i])
            assert proposal_hit_exists(scene, threshold=0.5)

    def test_cooccurring_confusables_use_different_colors(self, universe):
        cfg = universe.config
        pairs = {frozenset(p) for p in cfg.confusable_pairs}
        checked = 0
        for i in range(200):
            scene, _ = generate_scene(universe, f"s{i}", [6, 0, i])
            present = {cfg.class_names[g.class_index]: dict(g.attributes) for g in scene.gt}
            for pair in pairs:
                a, b = sorted(pair)
                if a in present and b in present:
                    checked += 1
                    assert present[a]["color"] != present[b]["color"]
        assert checked > 20  # co-occurrence is common by construction

    def test_every_gt_has_color(self, universe):
        for i in range(30):
            scene, _ = generate_scene(universe, f"s{i}", [7, 0, i])
            for g in scene.gt:
                assert "color" in dict(g.attributes)

    def test_facts_match_parser(self, universe, registry):
        # whatever the captions claim must come back out of the parser
        vocab = benchmark_vocabulary(universe.class_names)
        for i in range(100):
            scene, facts = generate_scene(universe, f"s{i}", [8, 0, i])
            labels = extract_labels(scene.captions, vocab, registry)
            assert labels.objects == facts.mentioned_classes
            recovered = {
                (c, cat, val)
                for c in labels.objects
                for cat, val in labels.pairs_for(c)
            }
            assert facts.mentioned_pairs <= recovered | facts.mentioned_pairs
            # every recovered pair was actually stated
            assert recovered <= facts.mentioned_pairs

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 10**6),
        feature_dim=st.integers(8, 64),
        noise_sigma=st.one_of(st.sampled_from([0.0, 1000.0]), st.floats(0.0, 1000.0)),
        attr_mention_prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        cooccur_prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_matches_loop_reference(self, registry, seed, index, feature_dim, noise_sigma, attr_mention_prob, cooccur_prob):
        # captions are drawn last, so equal captions show the stream stayed aligned through every box and feature
        config = SynthConfig(feature_dim, noise_sigma, attr_mention_prob, cooccur_prob)
        universe = make_universe(config, registry, seed=0)
        scene, facts = generate_scene(universe, "s", [seed, 2, index])
        ref, ref_facts = reference.generate_scene(universe, "s", [seed, 2, index])
        assert scene.to_record() == ref.to_record()
        assert facts == ref_facts
        for out, want in ((scene.proposals.boxes, ref.proposals.boxes), (scene.proposals.features, ref.proposals.features)):
            assert out.shape == want.shape and out.tobytes() == want.tobytes()
            assert out.flags.c_contiguous and out.base is None  # each owns its memory, not a view of one table

    def test_features_near_prototype_sum(self, universe):
        cfg = universe.config
        scene, _ = generate_scene(universe, "s0", [9, 0, 0])
        for g_idx, g in enumerate(scene.gt):
            base = universe.class_prototypes[g.class_index].copy()
            for cat, val in g.attributes:
                base = base + universe.attribute_prototypes[(cat, val)]
            row = g_idx * cfg.jitters_per_gt
            feat = scene.proposals.features[row]
            # noise is N(0, sigma^2) per coordinate; the distance should sit
            # near sigma * sqrt(d), far below the class separation scale
            dist = np.linalg.norm(feat - base)
            assert dist < cfg.noise_sigma * np.sqrt(cfg.feature_dim) * 2.5


class TestDatasetIO:
    def test_round_trip(self, universe, tmp_path):
        path = tmp_path / "data.jsonl"
        scenes = gen_dataset(universe, 5, [0, 0], id_prefix="train")
        write_dataset(path, scenes, universe)
        loaded = load_dataset(path)
        assert len(loaded) == 5
        for a, b in zip(scenes, loaded):
            assert a.image_id == b.image_id
            assert np.array_equal(a.proposals.features, b.proposals.features)
            assert np.array_equal(a.proposals.boxes, b.proposals.boxes)
            assert a.captions == b.captions
            assert [g.class_index for g in a.gt] == [g.class_index for g in b.gt]

    def test_reruns_byte_identical(self, universe, tmp_path):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_dataset(p1, gen_dataset(universe, 4, [1, 0]), universe)
        write_dataset(p2, gen_dataset(universe, 4, [1, 0]), universe)
        assert p1.read_bytes() == p2.read_bytes()

    # each pin holds the file's bytes and, apart from the format, what generation produced (reference.scenes_digest)
    def test_seed0_test_stream_bytes_pinned(self, universe, tmp_path):
        # the first 20 scenes of the seed-0 test stream, byte for byte
        path = tmp_path / "test.jsonl"
        scenes = gen_dataset(universe, 20, [0, 2])
        write_dataset(path, scenes, universe)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "1cbeda0972b9fe70eface07142121289fc216c7c581e8c2a12b0f08919072716"
        assert reference.scenes_digest(scenes) == "0494c86a8dbdd68b2c3985b026781cb2b241c31c31fa90a23128e4528806cc49"

    def test_seed0_test_split_bytes_pinned(self, universe, tmp_path):
        # the whole seed-0 test split, as the benchmark's data_eval workload writes it
        path = tmp_path / "test.jsonl"
        scenes = gen_dataset(universe, 500, [0, 2], id_prefix="test")
        write_dataset(path, scenes, universe)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "8aefba6e34e073966db9ef595e54d04a6dbbe53fdb0c47d99fd7020447c0bd87"
        assert reference.scenes_digest(scenes) == "a161734c527c43ccd8ca589a749f1d638fafe6ac2f9c29b29ad6e27a86fdd543"

    def test_header_contents(self, universe, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset(path, gen_dataset(universe, 1, [0, 0]), universe)
        header, _ = read_dataset(path)
        assert header["feature_dim"] == universe.config.feature_dim
        assert tuple(header["class_names"]) == universe.class_names
        assert header["universe"] == universe_fingerprint(universe) == "a281eefaf0382704"

    def test_record_holds_base64_float64_rows(self, universe):
        scene, _ = generate_scene(universe, "s0", [5, 0, 0])
        record = json.loads(json.dumps(scene.to_record()))
        assert set(record) == {"image_id", "gt", "boxes", "features", "captions"}
        for key, values in (("boxes", scene.proposals.boxes), ("features", scene.proposals.features)):
            assert base64.b64decode(record[key], validate=True) == values.astype("<f8").tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(1, 6)),
            elements=st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, -1e-310, 1e308, -1e308])),
        )
    )
    def test_rows_round_trip_bit_for_bit(self, values):
        decoded = _decode_rows(_encode_rows(values), values.shape[1])
        assert decoded.dtype == np.float64 and decoded.flags.c_contiguous and decoded.flags.owndata
        assert decoded.shape == values.shape
        assert decoded.tobytes() == values.tobytes()

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_dataset(path) == (None, [])
        assert load_dataset(path) == []

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other", "version": 1}\n')
        with pytest.raises(DataError, match="line 1"):
            load_dataset(path)

    def test_corrupt_record_line_numbered(self, universe, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        write_dataset(path, gen_dataset(universe, 2, [0, 0]), universe)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # truncate the second scene
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(path)

    def test_blank_lines_before_the_header_keep_line_numbers(self, universe, tmp_path):
        path = tmp_path / "blank.jsonl"
        write_dataset(path, gen_dataset(universe, 2, [0, 0]), universe)
        lines = path.read_text().splitlines()
        path.write_text("\n\n" + "\n".join(lines) + "\n")
        header, scenes = read_dataset(path)
        assert tuple(header["class_names"]) == universe.class_names and len(scenes) == 2
        lines[2] = lines[2][: len(lines[2]) // 2]  # truncate the second scene, now on line 5
        path.write_text("\n\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 5"):
            load_dataset(path)

    def test_feature_width_mismatch(self, universe, tmp_path):
        # rows one value narrower than the header's feature_dim; no scene has 64 of them, so the bytes are no whole rows
        path = tmp_path / "width.jsonl"
        scenes = gen_dataset(universe, 1, [0, 0])
        record = scenes[0].to_record()
        record["features"] = _encode_rows(scenes[0].proposals.features[:, :-1])
        with open(path, "w") as f:
            f.write(json.dumps(dataset_header(universe)) + "\n")
            f.write(json.dumps(record) + "\n")
        with pytest.raises(DataError, match="line 2: bad scene record: .* not whole rows of 64 float64 values"):
            load_dataset(path)

    def test_fingerprint_tells_universes_apart(self, universe, registry):
        assert universe_fingerprint(make_universe(SynthConfig(), registry, seed=1)) != universe_fingerprint(universe)
        assert universe_fingerprint(make_universe(SynthConfig(), registry, seed=0)) == universe_fingerprint(universe)

    def test_universe_is_built_without_its_fingerprint(self, registry):
        # the fingerprint is computed when a header is written, not in training's set-up
        with mock.patch("capdet.synthbench.universe_fingerprint", side_effect=AssertionError):
            make_universe(SynthConfig(), registry, seed=0)

    def test_missing_key_rejected(self, universe, tmp_path):
        path = tmp_path / "missing.jsonl"
        scenes = gen_dataset(universe, 1, [0, 0])
        record = scenes[0].to_record()
        del record["captions"]
        with open(path, "w") as f:
            f.write(json.dumps(dataset_header(universe)) + "\n")
            f.write(json.dumps(record) + "\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path)


class TestBenchmarkVocabulary:
    def test_matches_class_order(self, universe):
        vocab = benchmark_vocabulary(universe.class_names)
        assert vocab.class_names == universe.class_names
        assert vocab.match_phrase(("apple",)) == 0


def _same_draws(rng, state, got, want, what):
    """got and want came from the same generator state; both values and the state afterwards must agree."""
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f"{what}: values differ"
    assert rng.bit_generator.state == state, f"{what}: the generator state afterwards differs"


class TestNumpyStreamEquivalences:
    """The identities generate_scene relies on to make numpy's draws in fewer calls.

    If a numpy upgrade breaks one, the dataset bytes change; these name which.
    """

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**63), lo=st.floats(-1e3, 1e3), width=st.floats(0.0, 1e3))
    def test_uniform_is_low_plus_range_times_random(self, seed, lo, width):
        hi = lo + width
        rng = np.random.default_rng(seed)
        want = rng.uniform(lo, hi)
        state = rng.bit_generator.state
        rng = np.random.default_rng(seed)
        got = lo + (hi - lo) * rng.random()
        _same_draws(rng, state, got, want, "rng.uniform(lo, hi) == lo + (hi - lo) * rng.random()")

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**63), skip=st.integers(0, 3))
    def test_random_four_is_four_scalar_draws(self, seed, skip):
        rng = np.random.default_rng(seed)
        rng.random(skip)
        want = [rng.random() for _ in range(4)]
        state = rng.bit_generator.state
        rng = np.random.default_rng(seed)
        rng.random(skip)
        _same_draws(rng, state, rng.random(4), want, "rng.random(4) == four rng.random() calls")

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**63), d=st.integers(1, 80), row=st.integers(0, 3))
    def test_standard_normal_into_a_row_is_a_fresh_draw(self, seed, d, row):
        rng = np.random.default_rng(seed)
        want = rng.standard_normal(d)
        state = rng.bit_generator.state
        rng = np.random.default_rng(seed)
        table = np.zeros((4, d))
        rng.standard_normal(out=table[row])
        _same_draws(rng, state, table[row], want, "rng.standard_normal(out=row) == rng.standard_normal(d)")
        assert not np.delete(table, row, axis=0).any()
