import dataclasses
import hashlib
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import synth_reference as reference
from capdet.geometry import iou_matrix
from capdet.scorenet import RegionSet
from capdet.synthbench import (
    DataError,
    SynthConfig,
    SyntheticScene,
    _jitter_box,
    benchmark_vocabulary,
    gen_dataset,
    generate_scene,
    load_dataset,
    make_universe,
    read_dataset,
    universe_fingerprint,
    write_dataset,
)
from capdet.textgraph import default_registry, extract_labels
from dataset_file import DatasetFile


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
        assert reference.scenes_digest(loaded) == reference.scenes_digest(scenes)

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
        assert digest == "496727a44e6bcf12d1c628f6899d91b9f4c49095879d3b4296302dcfd341eb01"
        assert reference.scenes_digest(scenes) == "0494c86a8dbdd68b2c3985b026781cb2b241c31c31fa90a23128e4528806cc49"

    def test_seed0_test_split_bytes_pinned(self, universe, tmp_path):
        # the whole seed-0 test split, as the benchmark's data_eval workload writes it
        path = tmp_path / "test.jsonl"
        scenes = gen_dataset(universe, 500, [0, 2], id_prefix="test")
        write_dataset(path, scenes, universe)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "6912905db6eba6994d690047094c63169548bd425d91ebf87a897f8455ea35b0"
        assert reference.scenes_digest(scenes) == "a161734c527c43ccd8ca589a749f1d638fafe6ac2f9c29b29ad6e27a86fdd543"

    def test_header_contents(self, universe, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset(path, gen_dataset(universe, 3, [0, 0]), universe)
        header, _ = read_dataset(path)
        assert header["feature_dim"] == universe.config.feature_dim
        assert tuple(header["class_names"]) == universe.class_names
        assert header["universe"] == universe_fingerprint(universe) == "a281eefaf0382704"
        assert header["scenes"] == 3 and header["version"] == 3

    def test_record_counts_proposals_and_its_payload_follows(self, universe, tmp_path):
        path = tmp_path / "data.jsonl"
        scene, _ = generate_scene(universe, "s0", [5, 0, 0])
        write_dataset(path, [scene], universe)
        data = DatasetFile.read(path)
        assert data.to_bytes() == path.read_bytes()
        (record,) = data.records
        assert set(record) == {"image_id", "gt", "proposals", "captions"}
        assert record["proposals"] == scene.proposals.size
        boxes, features = scene.proposals.boxes, scene.proposals.features
        assert data.payloads == [boxes.astype("<f8").tobytes() + features.astype("<f8").tobytes()]
        assert scene.to_record() == (json.loads(json.dumps(record)), data.payloads[0])

    @settings(max_examples=200, deadline=None)
    @given(
        corners=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(2)), elements=st.floats(-1e300, 1e300)),
        features=hnp.arrays(
            np.float64,
            st.tuples(st.just(1), st.integers(1, 6)),
            elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, -1e-310])),
        ),
    )
    def test_rows_round_trip_bit_for_bit(self, corners, features):
        # any finite features, and boxes whose far corner is the next float after the near one
        features = np.repeat(features, len(corners), axis=0)
        boxes = np.concatenate([corners, np.nextafter(corners, np.inf)], axis=1)
        scene = SyntheticScene("s", [], RegionSet(boxes, features), ["a cat"])
        record, payload = scene.to_record()
        back = SyntheticScene.from_record(record, lambda n: payload[:n] if n == len(payload) else b"", 1, features.shape[1])
        for got, want in ((back.proposals.boxes, boxes), (back.proposals.features, features)):
            assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.owndata
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_dataset(path) == (None, [])
        assert load_dataset(path) == []

    def test_a_header_of_no_scenes_is_an_empty_dataset(self, universe, tmp_path):
        path = tmp_path / "none.jsonl"
        write_dataset(path, [], universe)
        header, scenes = read_dataset(path)
        assert header["scenes"] == 0 and scenes == []

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other", "version": 1}\n')
        with pytest.raises(DataError, match=f"^{path}: header: expected schema 'capdet-synth' version 3$"):
            load_dataset(path)

    def test_version_2_is_refused(self, universe, tmp_path):
        path = tmp_path / "v2.jsonl"
        write_dataset(path, gen_dataset(universe, 1, [0, 0]), universe)
        data = DatasetFile.read(path)
        data.header["version"] = 2
        data.write(path)
        with pytest.raises(DataError, match="header: expected schema 'capdet-synth' version 3, got version 2$"):
            load_dataset(path)

    def test_corrupt_record_names_its_scene(self, universe, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        write_dataset(path, gen_dataset(universe, 2, [0, 0]), universe)
        data = DatasetFile.read(path)
        line = json.dumps(data.records[1]).encode()
        data.records[1] = line[: len(line) // 2]  # cut the second scene's record in half
        data.write(path)
        with pytest.raises(DataError, match=f"^{path}: scene 2: not JSON: "):
            load_dataset(path)

    @pytest.mark.parametrize(
        "where, message",
        [(0, "header: not JSON: Expecting value"), (1, "scene 1: not JSON: Expecting value"), (2, "scene 2: not JSON: ")],
        ids=["before the header", "before the first scene", "after the first scene"],
    )
    def test_blank_lines_are_not_skipped(self, where, message, universe, tmp_path):
        path = tmp_path / "blank.jsonl"
        write_dataset(path, gen_dataset(universe, 2, [0, 0]), universe)
        blob = path.read_bytes()
        at = DatasetFile.parse(blob).ends()[where - 1] if where else 0
        path.write_bytes(blob[:at] + b"\n" + blob[at:])
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            load_dataset(path)

    def test_a_line_without_its_newline_ends_early(self, universe, tmp_path):
        path = tmp_path / "cut.jsonl"
        write_dataset(path, gen_dataset(universe, 2, [0, 0]), universe)
        blob = path.read_bytes()
        ends = DatasetFile.parse(blob).ends()
        # a cut just before the newline of the header, then of the second scene's record
        for cut, where in ((ends[0] - 1, "header"), (blob.index(b"\n", ends[1]), "scene 2")):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError, match=f"^{path}: {where}: the file ends inside this line$"):
                load_dataset(path)

    def test_feature_width_mismatch(self, universe, tmp_path):
        # rows one value narrower than the header's feature_dim, so the payload is short by a value a row
        path = tmp_path / "width.jsonl"
        write_dataset(path, gen_dataset(universe, 1, [0, 0]), universe)
        data = DatasetFile.read(path)
        boxes, features = data.arrays(0)
        data.set_arrays(0, boxes, features[:, :-1])
        data.write(path)
        m = data.records[0]["proposals"]
        with pytest.raises(DataError, match=f"^{path}: scene 1: the payload needs {m * 68 * 8} bytes, and the file has {m * 67 * 8} left$"):
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
        write_dataset(path, gen_dataset(universe, 1, [0, 0]), universe)
        data = DatasetFile.read(path)
        del data.records[0]["captions"]
        data.write(path)
        with pytest.raises(DataError, match="scene 1: record needs 'captions'"):
            load_dataset(path)

    def test_header_count_is_the_scenes_written(self, universe, tmp_path):
        # a count that disagrees with the scenes is refused, and no file is left
        path = tmp_path / "count.jsonl"
        scenes = gen_dataset(universe, 3, [0, 0])
        write_dataset(path, iter(scenes), universe, 3)
        assert DatasetFile.read(path).header["scenes"] == 3
        for count in (2, 4):
            with pytest.raises(ValueError, match=f"the header counts {count} scenes, but 3 were given"):
                write_dataset(tmp_path / "other.jsonl", iter(scenes), universe, count)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["count.jsonl"]

    def test_interrupted_write_leaves_no_part_of_a_file(self, universe, tmp_path):
        # a generator that raises after three scenes: a new target is never made, an existing one keeps its bytes
        scenes = gen_dataset(universe, 5, [0, 0])

        def failing():
            yield from scenes[:3]
            raise RuntimeError("interrupted")

        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        write_dataset(old, scenes[3:], universe)
        before = old.read_bytes()
        for path in (new, old):
            with pytest.raises(RuntimeError, match="interrupted"):
                write_dataset(path, failing(), universe, 5)
        assert not new.exists() and old.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.jsonl"]

    @pytest.mark.parametrize("proposals", [10**12, 1000])
    def test_a_record_cannot_make_the_reader_allocate(self, proposals, universe, tmp_path):
        # the payload's size is checked against the bytes left before anything is read or built
        path = tmp_path / "huge.jsonl"
        write_dataset(path, gen_dataset(universe, 1, [0, 0]), universe)
        data = DatasetFile.read(path)
        data.records[0]["proposals"] = proposals
        data.write(path)
        left = len(data.payloads[0])
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=f"scene 1: the payload needs {proposals * 68 * 8} bytes, and the file has {left} left$"):
                read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path) + (1 << 20), peak


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
