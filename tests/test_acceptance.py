"""End-to-end acceptance checks, one test per shipped guarantee.

Each test finishes by printing a single PASS line with the measured
numbers, so `pytest tests/test_acceptance.py -s` reads as a report.
Thresholds are fixed here; nothing is tuned at runtime.
"""

import statistics
import time

import numpy as np
from head_reference import lone_batch
from train_reference import scene_supervision

from capdet import cli
from capdet.geometry import iou_matrix, nms
from capdet.gradcheck import run_gradient_check
from capdet.oicr import build_pseudo_labels, overlap_masks
from capdet.scorenet import clamp_prob, forward, init_params
from capdet.synthbench import (
    SynthConfig,
    benchmark_vocabulary,
    gen_dataset,
    generate_scene,
    make_universe,
)
from capdet.textgraph import (
    LabelSet,
    default_registry,
    default_vocabulary,
    extract_labels,
    parse_scene_graph,
)
from capdet.trainer import SceneBatch, TrainConfig, evaluate, train
from capdet.weakloss import compile_supervision, entanglement_loss, object_mil_loss


def _random_boxes(rng, count):
    boxes = []
    for _ in range(count):
        x0, y0 = rng.uniform(0.0, 3.0, size=2)
        boxes.append((x0, y0, x0 + rng.uniform(0.2, 1.5), y0 + rng.uniform(0.2, 1.5)))
    return np.array(boxes)


def test_criterion_1_composed_gradient_matches_finite_differences():
    result = run_gradient_check(trials=100, seed=20240601, coords_per_trial=80, step=1e-5)
    assert result.trials == 100
    assert result.max_rel_error < 1e-4
    assert result.elapsed_seconds < 120.0
    print(
        f"\nPASS criterion 1: composed-loss gradient vs central differences, "
        f"max relative error {result.max_rel_error:.3e} over {result.trials} random "
        f"configurations / {result.coords_checked} coordinates in "
        f"{result.elapsed_seconds:.1f}s (limits 1e-4, 120s)"
    )


def test_criterion_2_coupled_loss_dominates_decoupled_selection():
    rng = np.random.default_rng(20240602)
    draws = 1000
    strict = 0
    for _ in range(draws):
        m = int(rng.integers(2, 9))
        num_classes = int(rng.integers(2, 5))
        c = int(rng.integers(0, num_classes))
        obj = rng.uniform(0.01, 1.0, size=(m, num_classes + 1))
        attr = rng.uniform(0.01, 1.0, size=(m, 3))  # columns: color red, green, blue
        cols = {("color", "red"): 0, ("color", "green"): 1, ("color", "blue"): 2}
        labels = LabelSet(objects={c}, attribute_pairs={c: {("color", "red")}})
        sup = compile_supervision([labels], num_classes, cols)
        (coupled,), _, _ = entanglement_loss(obj[None], attr[None], sup, np.ones((1, m), dtype=bool))
        # decoupled: each factor free to pick its own region (|O| = 1)
        p_obj = np.asarray(clamp_prob(obj[:, c]))
        p_attr = np.asarray(clamp_prob(attr[:, 0]))
        decoupled = -(np.log(p_obj.max()) + np.log(p_attr.max()))
        assert coupled >= decoupled - 1e-12
        if coupled > decoupled + 1e-12:
            strict += 1
    assert strict > draws // 2

    # reference divergence example: the coupled pick moves off the object-only pick
    obj = np.array([[0.9, 0.1], [0.5, 0.5]])
    attr = np.array([[0.1, 0.9], [0.8, 0.2]])  # columns: color brown, red
    cols = {("color", "brown"): 0, ("color", "red"): 1}
    labels = LabelSet(objects={0}, attribute_pairs={0: {("color", "brown")}})
    sup = compile_supervision([labels], 1, cols)
    valid = np.ones((1, 2), dtype=bool)
    _, object_rows, _ = object_mil_loss(obj[None], sup, valid)
    _, coupled_rows, _ = entanglement_loss(obj[None], attr[None], sup, valid)
    object_pick = dict(zip(sup.classes.tolist(), object_rows.tolist()))
    # a pair's choice is keyed by (class, attribute column)
    coupled_pick = dict(zip(zip(sup.pair_classes.tolist(), sup.pair_columns.tolist()), coupled_rows.tolist()))
    brown = cols["color", "brown"]
    assert object_pick[0] == 0
    assert coupled_pick[(0, brown)] == 1
    print(
        f"\nPASS criterion 2: coupled loss >= decoupled factor maxima on {draws}/{draws} "
        f"random tensors, strictly greater on {strict} (> {draws // 2}); divergence "
        f"example picks region {object_pick[0]} (object-only) vs "
        f"{coupled_pick[(0, brown)]} (coupled)"
    )


def test_criterion_3_formulation_invariants():
    rng = np.random.default_rng(20240603)
    cats = {"color": ("red", "green"), "size": ("small", "large")}

    # image-level scores stay in (0.5, 1); every softmax row is a distribution
    model_draws = 40
    for trial in range(model_draws):
        d = int(rng.integers(4, 17))
        m = int(rng.integers(2, 9))
        names = [f"c{i}" for i in range(int(rng.integers(2, 5)))]
        params = init_params(d, names, cats, num_heads=3, seed=trial)
        boxes = _random_boxes(rng, m)
        scores = forward(params, lone_batch(boxes, rng.normal(scale=2.0, size=(m, d))))
        assert np.all(scores.image_level > 0.5) and np.all(scores.image_level < 1.0)
        rows = [h.sum(axis=1) for h in scores.objects[0]]
        for a in scores.attributes[0]:
            rows += [a[:, cols].sum(axis=1) for cols in params.category_slices.values()]
        for s in rows:
            np.testing.assert_allclose(s, 1.0, atol=1e-6)

    # greedy suppression leaves no kept pair at or above the threshold
    nms_draws = 60
    for _ in range(nms_draws):
        boxes = _random_boxes(rng, int(rng.integers(2, 25)))
        keep = nms(boxes, rng.uniform(size=(len(boxes), 1)), 0.4)[:, 1]
        kept_overlaps = iou_matrix(boxes[keep], boxes[keep])
        for a in range(len(keep)):
            for b in range(a + 1, len(keep)):
                assert kept_overlaps[a, b] < 0.4

    # refinement pseudo-labels respect the overlap threshold on a generated sample
    registry = default_registry()
    config = SynthConfig(feature_dim=16)
    universe = make_universe(config, registry, seed=5)
    scenes = gen_dataset(universe, 100, [5, 9])
    vocab = benchmark_vocabulary(universe.class_names)
    category_values = {cat: tuple(registry.values[cat]) for cat in registry.categories}
    params = init_params(16, universe.class_names, category_values, num_heads=3, seed=1)
    rc = TrainConfig()
    num_classes = len(universe.class_names)
    labeled_regions = 0
    for scene in scenes:
        sup = scene_supervision(extract_labels(scene.captions, vocab, registry), params, rc)
        batch = SceneBatch.pack([scene])
        near = overlap_masks(batch.boxes, rc.tau, batch.valid)
        pseudo = build_pseudo_labels(forward(params, batch), sup, near)
        for head_labels, head_seeds in zip(pseudo.labels[0], pseudo.seeds):
            for i, c in enumerate(head_labels):
                if c >= num_classes:
                    continue
                seed_region = head_seeds[np.searchsorted(sup.classes, c)]
                assert iou_matrix(scene.proposals.boxes[[i]], scene.proposals.boxes[[seed_region]])[0, 0] >= rc.tau
                labeled_regions += 1
    assert labeled_regions > 0
    print(
        f"\nPASS criterion 3: image scores in (0.5, 1) and softmax rows sum to 1 on "
        f"{model_draws} random models; kept pairwise IoU < 0.4 on {nms_draws} suppression "
        f"draws; overlap >= {rc.tau} held for {labeled_regions} pseudo-labeled regions "
        f"across {len(scenes)} scenes"
    )


def test_criterion_4_caption_extraction_fidelity():
    vocab, registry = default_vocabulary(), default_registry()

    g = parse_scene_graph("a red apple next to a pear", vocab, registry)
    assert [(s, vocab.class_names[i]) for s, i in g.objects] == [
        ("apple", "apple"),
        ("pear", "pear"),
    ]
    assert g.attributes == [(0, "color", "red")]
    assert g.relations == [(0, "next to", 1)]

    g = parse_scene_graph("a red stop sign is glowing against the dark sky", vocab, registry)
    assert [(s, vocab.class_names[i]) for s, i in g.objects] == [("stop sign", "stop sign")]
    assert g.attributes == [(0, "color", "red")]

    config = SynthConfig(feature_dim=16)
    universe = make_universe(config, registry, seed=11)
    bench_vocab = benchmark_vocabulary(universe.class_names)
    total = 0
    recovered = 0
    num_scenes = 400
    for i in range(num_scenes):
        scene, facts = generate_scene(universe, f"scene-{i:06d}", [11, 4, i])
        labels = extract_labels(scene.captions, bench_vocab, registry)
        got = {
            (c, cat, val)
            for c, pairs in labels.attribute_pairs.items()
            for cat, val in pairs
        }
        total += len(facts.mentioned_pairs)
        recovered += len(facts.mentioned_pairs & got)
    assert total > 0
    rate = recovered / total
    assert rate >= 0.99
    print(
        f"\nPASS criterion 4: both reference captions parse exactly; "
        f"{recovered}/{total} mentioned (class, attribute) pairs recovered "
        f"({rate:.4f} >= 0.99) over {num_scenes} generated scenes"
    )


def test_criterion_5_attribute_coupling_beats_baseline_on_confusables():
    start = time.monotonic()
    registry = default_registry()
    config = SynthConfig()
    confusable = tuple(name for pair in config.confusable_pairs for name in pair)
    assert confusable, "benchmark must ship at least one confusable pair"
    gaps = []
    details = []
    for seed in (0, 1, 2):
        universe = make_universe(config, registry, seed=seed)
        train_scenes = gen_dataset(universe, 2000, [seed, 0])
        test_scenes = gen_dataset(universe, 500, [seed, 2])
        vocab = benchmark_vocabulary(universe.class_names)
        conf_map = {}
        for mode, lam2 in (("em+sg", 0.01), ("em", 0.0)):
            tc = TrainConfig(seed=seed, loss_mode=mode, lambda2=lam2)
            params = train(train_scenes, vocab, registry, tc)
            metrics = evaluate(params, test_scenes, tc)
            conf_map[mode] = float(
                np.mean([metrics["per_class_ap"][name] for name in confusable])
            )
        gaps.append(conf_map["em+sg"] - conf_map["em"])
        details.append(f"seed {seed}: {conf_map['em+sg']:.3f} vs {conf_map['em']:.3f}")
    elapsed = time.monotonic() - start
    median_gap = statistics.median(gaps)
    assert median_gap >= 0.05
    assert elapsed < 900.0
    print(
        f"\nPASS criterion 5: confusable-class mAP@0.5 gap (em+sg minus em) median "
        f"{median_gap:+.4f} over 3 seeds (>= +0.05); {'; '.join(details)}; "
        f"2000 train / 500 test scenes per seed, {elapsed:.0f}s total (< 900s)"
    )


def test_criterion_6_baseline_spellings_build_identical_checkpoints(tmp_path):
    data = tmp_path / "data"
    assert cli.main([
        "synth", "--seed", "0", "--train", "40", "--val", "2", "--test", "2",
        "--out", str(data),
    ]) == 0
    a = tmp_path / "mode.ckpt"
    b = tmp_path / "lambda.ckpt"
    common = ["train", "--data", str(data / "train.jsonl"), "--seed", "0", "--steps", "30"]
    assert cli.main(common + ["--out", str(a), "--loss-mode", "em"]) == 0
    assert cli.main(common + ["--out", str(b), "--lambda2", "0"]) == 0
    bytes_a, bytes_b = a.read_bytes(), b.read_bytes()
    assert bytes_a == bytes_b
    print(
        f"\nPASS criterion 6: --loss-mode em and --lambda2 0 checkpoints byte-identical "
        f"({len(bytes_a)} bytes) after 30 steps at seed 0"
    )


def test_criterion_7_pipeline_is_deterministic(tmp_path):
    metrics = []
    for run in ("first", "second"):
        root = tmp_path / run
        data = root / "data"
        ckpt = root / "model.ckpt"
        out = root / "metrics.json"
        assert cli.main([
            "synth", "--seed", "3", "--train", "30", "--val", "5", "--test", "10",
            "--out", str(data),
        ]) == 0
        assert cli.main([
            "train", "--data", str(data / "train.jsonl"), "--seed", "3",
            "--steps", "25", "--out", str(ckpt),
        ]) == 0
        assert cli.main([
            "eval", "--data", str(data / "test.jsonl"), "--checkpoint", str(ckpt),
            "--out", str(out),
        ]) == 0
        metrics.append(out.read_bytes())
    assert metrics[0] == metrics[1]
    print(
        f"\nPASS criterion 7: generate + train + eval repeated at seed 3 produced "
        f"byte-identical metrics files ({len(metrics[0])} bytes)"
    )
