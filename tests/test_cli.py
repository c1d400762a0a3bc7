import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import typing
import warnings
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capdet import cli, gradcheck, scorenet, synthbench, textgraph, trainer
from capdet.synthbench import SynthConfig
from capdet.textgraph import Vocabulary, default_registry, default_vocabulary
from capdet.trainer import NumericalError, TrainConfig
from dataset_file import DatasetFile
from eval_reference import infer_scene
from synth_reference import scenes_digest

SYNTH_ARGS = [
    "synth",
    "--seed", "0",
    "--train", "6",
    "--val", "2",
    "--test", "2",
    "--feature-dim", "12",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = cli.main(SYNTH_ARGS + ["--out", str(out)])
    assert code == 0
    return out


class TestSynth:
    def test_writes_all_splits(self, data_dir):
        for split, size in (("train", 6), ("val", 2), ("test", 2)):
            data = DatasetFile.read(data_dir / f"{split}.jsonl")
            assert len(data.records) == len(data.payloads) == data.header["scenes"] == size
            assert data.header["feature_dim"] == 12

    def test_rerun_byte_identical(self, data_dir, tmp_path):
        again = tmp_path / "again"
        assert cli.main(SYNTH_ARGS + ["--out", str(again)]) == 0
        for split in ("train", "val", "test"):
            assert (again / f"{split}.jsonl").read_bytes() == (data_dir / f"{split}.jsonl").read_bytes()

    def test_splits_differ(self, data_dir):
        train, val = (DatasetFile.read(data_dir / f"{split}.jsonl") for split in ("train", "val"))
        assert train.records[0]["captions"] != val.records[0]["captions"] or train.payloads[0] != val.payloads[0]

    def test_zero_size_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "x"), "--train", "0"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_feature_dim_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "x"), "--feature-dim", "4"])
        assert code == 1

    def test_bad_split_size_writes_nothing(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "out"), "--train", "3", "--val", "2", "--test", "0"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["usage error: test: num_scenes must be positive, got 0"]
        assert list(tmp_path.iterdir()) == []

    def test_out_naming_a_file_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("kept\n")
        assert cli.main(["synth", "--out", str(out), "--train", "1", "--val", "1", "--test", "1"]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("data error: ") and str(out) in err
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "kept\n"

    def test_four_settings_pinned(self, tmp_path):
        # every setting off its default; any change to the fixed universe or to the draw order shows here
        out = tmp_path / "out"
        args = ["synth", "--out", str(out), "--seed", "3", "--train", "10", "--val", "3", "--test", "3"]
        args += ["--feature-dim", "16", "--noise-sigma", "0.2", "--cooccur-prob", "0.5", "--attr-mention-prob", "0.4"]
        assert cli.main(args) == 0
        digests = {s: hashlib.sha256((out / f"{s}.jsonl").read_bytes()).hexdigest() for s in ("train", "val", "test")}
        assert digests == {
            "train": "e68c2ab1be991cf2cbd7c8682c08ba36468f65a37220c431cea7fd65d6138cd9",
            "val": "96666b5186b7ff42de954c2a19074846f351b9f637c0ec2d1d33d66e0cac255e",
            "test": "ebabc6998d593929d595c4e09ba77110a815088312a3e4ab920c53d4b525d34e",
        }
        # what generation produced, whatever the file format
        scenes = {s: scenes_digest(synthbench.load_dataset(out / f"{s}.jsonl")) for s in ("train", "val", "test")}
        assert scenes == {
            "train": "ab664264ee5866642460642bc3fb6d839659970c935c0e7058bc8316ba87af13",
            "val": "63563595aeb3b883f66a6d04c3d087edc0e6ee52f07a775393dc992765ed7c72",
            "test": "116ee0f66ff129d3b642eddba3be3d93c062896c310bb4f1dbbe918c447bad59",
        }

    def test_holds_one_scene_at_a_time(self, tmp_path):
        # each split is written as it is generated, so eight times the scenes leave the peak about where it was;
        # the one-scene run first takes the one-time allocations of a first synth
        peaks = {}
        for size in (1, 40, 320):
            tracemalloc.start()
            try:
                args = ["synth", "--out", str(tmp_path / str(size)), "--train", str(size), "--val", "1", "--test", "1"]
                assert cli.main(args) == 0
                peaks[size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[320] < peaks[40] + (1 << 20), peaks

    def test_settings_flags_come_from_synth_config(self, tmp_path):
        # with no settings flags, SynthConfig's defaults make the universe
        out = tmp_path / "out"
        assert cli.main(["synth", "--out", str(out), "--train", "1", "--val", "1", "--test", "1"]) == 0
        universe = synthbench.make_universe(SynthConfig(), default_registry(), seed=0)
        expected = tmp_path / "expected.jsonl"
        synthbench.write_dataset(expected, synthbench.gen_dataset(universe, 1, [0, 0], "train"), universe)
        assert (out / "train.jsonl").read_bytes() == expected.read_bytes()

    def test_registry_without_a_pool_value_is_a_data_error(self, tmp_path, capsys):
        registry = default_registry()
        categories = [{"name": c, "values": [v for v in registry.values[c] if v != "brown"]} for c in registry.categories]
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"categories": categories}))
        out = tmp_path / "out"
        assert cli.main(["synth", "--out", str(out), "--registry", str(path)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"data error: {path}: ") and "('color', 'brown')" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--cooccur-prob", "2"),
            ("--cooccur-prob", "-0.1"),
            ("--cooccur-prob", "nan"),
            ("--attr-mention-prob", "1.5"),
            ("--noise-sigma", "-1"),
            ("--noise-sigma", "nan"),
            ("--noise-sigma", "inf"),
            ("--noise-sigma", "1e308"),
            ("--noise-sigma", "1e300"),
        ],
    )
    def test_out_of_range_setting_is_a_usage_error(self, flag, value, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["synth", "--out", str(out), flag, value]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("usage error: " + flag[2:].replace("-", "_") + " must ")
        assert not out.exists()


class TestParse:
    def test_captions_to_labels(self, tmp_path, capsys):
        captions = tmp_path / "captions.jsonl"
        records = [
            {"image_id": "a", "captions": ["a red apple next to the pear"]},
            {"image_id": "b", "captions": ["the stop sign is red", "a shiny cup"]},
        ]
        captions.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        out = tmp_path / "labels.jsonl"
        assert cli.main(["parse", "--captions", str(captions), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "parsed 2 caption sets" in stdout
        assert "1 unknown adjectives dropped" in stdout  # "shiny"
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["image_id"] == "a"
        assert len(lines[0]["objects"]) == 2
        assert ["8", "color", "red"] not in lines[0]["attributes"]

    def test_holds_one_caption_record_at_a_time(self, tmp_path):
        # each label record is written before the next caption record is read, so eight times the records leave
        # the peak about where it was; the one-record run first takes the one-time allocations of a first parse
        record = {"captions": ["a red apple next to the pear", "the small cat on a wooden chair"]}
        peaks = {}
        for size in (1, 200, 1600):
            captions, out = tmp_path / f"captions{size}.jsonl", tmp_path / f"labels{size}.jsonl"
            captions.write_text("".join(json.dumps({"image_id": str(i)} | record) + "\n" for i in range(size)))
            tracemalloc.start()
            try:
                assert cli.main(["parse", "--captions", str(captions), "--out", str(out)]) == 0
                peaks[size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(out.read_text().splitlines()) == size
        assert peaks[1600] < peaks[200] + (1 << 19), peaks

    def test_missing_captions_file(self, tmp_path, capsys):
        code = cli.main(["parse", "--captions", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_record_without_image_id(self, tmp_path):
        captions = tmp_path / "captions.jsonl"
        captions.write_text('{"captions": ["a cat"]}\n')
        code = cli.main(["parse", "--captions", str(captions), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "line",
        [
            "5",
            '{"image_id": "a", "captions": [5]}',
            '{"image_id": "a", "captions": "apple"}',
            '{"image_id": null, "captions": ["a cat"]}',
            '{"image_id": NaN, "captions": ["a cat"]}',
            '{"captions": ["a cat"]}',
            '{"image_id": "a"}',
            '{"image_id": "a", "captions": []}',
            '{"image_id": "a", "captions": ["   "]}',
        ],
        ids=["number record", "number caption", "string captions", "null id", "NaN id", "no id", "no captions",
             "empty captions", "blank caption"],
    )
    def test_malformed_record_exits_two_naming_it(self, line, tmp_path, capsys):
        captions = tmp_path / "captions.jsonl"
        captions.write_text('{"image_id": "ok", "captions": ["a cat"]}\n' + line + "\n")
        out = tmp_path / "o"
        code = cli.main(["parse", "--captions", str(captions), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert f"{captions}: line 2: " in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, doc, message",
        [
            (
                "--vocab",
                {"classes": ["cat"], "synonyms": ["kitty"]},
                "vocabulary needs 'synonyms' as an object mapping words to class names, got ['kitty']",
            ),
            ("--vocab", {"classes": "cat"}, "vocabulary needs 'classes' as a list of strings, got 'cat'"),
            ("--vocab", {"classes": ["glasses", "dog"]}, "matched by lemma, so 'glasses' would never match"),
            (
                "--registry",
                {"categories": [{"name": "color", "values": ["red"]}], "aliases": ["big"]},
                "registry needs 'aliases' as an object mapping words to [category, value] lists, got ['big']",
            ),
            ("--registry", {"categories": [{"name": "color", "values": "red"}]}, "registry category needs 'values' as a list of strings, got 'red'"),
            ("--registry", {"categories": [{"name": 7, "values": ["red"]}]}, "registry category needs 'name' as a string, got 7"),
            ("--registry", {"categories": [{"name": "color", "values": ["red", "light blue"]}]}, "'light blue' is not one word"),
            (
                "--registry",
                {"categories": [{"name": "color", "values": ["red"]}], "aliases": {"dark-red": ["color", "red"]}},
                "attribute word 'dark-red' is not one word",
            ),
            ("--vocab", "[" * 100000, "maximum recursion depth exceeded"),
            ("--vocab", ["cat"], "vocabulary must be a JSON object, got ['cat']"),
            ("--vocab", {"classes": ["cat9"]}, "one or two words of the letters a-z, got 'cat9'"),
            ("--vocab", {"classes": ["cat"], "synonyms": {"big house cat": "cat"}}, "one or two words of the letters a-z"),
            ("--vocab", {"classes": ["cup"], "synonyms": {"glasses": "cup"}}, "matched by lemma, so 'glasses' would never match"),
            ("--vocab", {"classes": ["cat"], "synonyms": {"kitty": "dog"}}, "synonym 'kitty' maps to unknown class 'dog'"),
            ("--registry", {"categories": "color"}, "registry needs 'categories' as a list of category objects, got 'color'"),
            (
                "--registry",
                {"categories": [{"name": "size", "values": ["big"]}], "aliases": {"large": "big"}},
                "registry needs 'aliases' as an object mapping words to [category, value] lists, got {'large': 'big'}",
            ),
            (
                "--registry",
                {"categories": [{"name": "color", "values": ["red"]}], "aliases": {"crimson": ["color", "blue"]}},
                "alias 'crimson' targets unknown value ('color', 'blue')",
            ),
            ("--registry", {"categories": [{"name": "color", "values": ["red2"]}]}, "attribute word 'red2' is not one word"),
            ("--vocab", {"classes": ["cat"], "extra": 1}, "unknown vocabulary key 'extra'"),
            ("--registry", {"categories": [{"name": "color", "values": ["red"]}], "extra": 1}, "unknown registry key 'extra'"),
            (
                "--registry",
                {"categories": [{"name": "color", "values": ["red"], "extra": 1}]},
                "unknown registry category key 'extra'",
            ),
        ],
        ids=["synonym list", "class string", "class not a lemma", "alias list", "value string", "number category",
             "two-word value", "hyphenated alias", "nested too deeply", "not an object", "class with a digit",
             "three-word synonym", "synonym not a lemma", "synonym of an unknown class", "categories not a list",
             "alias to a string", "alias of an unknown value", "value with a digit", "extra vocabulary key",
             "extra registry key", "extra category key"],
    )
    def test_malformed_vocabulary_or_registry_exits_two_naming_it(self, flag, doc, message, tmp_path, capsys):
        captions, path, out = tmp_path / "captions.jsonl", tmp_path / "file.json", tmp_path / "o"
        captions.write_text('{"image_id": "a", "captions": ["a red cat"]}\n')
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = cli.main(["parse", "--captions", str(captions), "--out", str(out), flag, str(path)])
        (err,) = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err.startswith(f"data error: bad {'vocabulary' if flag == '--vocab' else 'registry'} file {path}: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, kind", [("--vocab", "vocabulary"), ("--registry", "registry")])
    def test_missing_vocabulary_or_registry_exits_two_naming_it(self, flag, kind, tmp_path, capsys):
        captions, path, out = tmp_path / "captions.jsonl", tmp_path / "missing.json", tmp_path / "o"
        captions.write_text('{"image_id": "a", "captions": ["a red cat"]}\n')
        assert cli.main(["parse", "--captions", str(captions), "--out", str(out), flag, str(path)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"data error: bad {kind} file {path}: ") and "No such file or directory" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                '{"image_id": "b", "captions": [5]}',
                "caption record needs 'captions' as a non-empty list of non-blank strings, got [5]",
            ),
            ('{"image_id": "b",', "not a JSON record"),
            ('{"image_id": "b", "captions": ["a cat"], "extra": 1}', "unknown caption record key 'extra'"),
        ],
        ids=["bad record", "bad json", "extra key"],
    )
    def test_errors_count_every_line(self, line, message, tmp_path, capsys):
        # a blank line 2 is skipped but counted, so every check names line 3
        captions = tmp_path / "captions.jsonl"
        captions.write_text('{"image_id": "a", "captions": ["a cat"]}\n\n' + line + "\n")
        out = tmp_path / "o"
        assert cli.main(["parse", "--captions", str(captions), "--out", str(out)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"data error: {captions}: line 3: {message}")
        assert not out.exists()


class TestTrainEval:
    def test_train_then_eval(self, data_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "loss.jsonl"
        code = cli.main(
            [
                "train",
                "--data", str(data_dir / "train.jsonl"),
                "--out", str(ckpt),
                "--log", str(log),
                "--steps", "5",
            ]
        )
        assert code == 0
        assert ckpt.exists()
        log_records = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(log_records) == 5
        assert all("l_total" in r for r in log_records)

        metrics_path = tmp_path / "metrics.json"
        code = cli.main(
            [
                "eval",
                "--data", str(data_dir / "val.jsonl"),
                "--checkpoint", str(ckpt),
                "--out", str(metrics_path),
            ]
        )
        assert code == 0
        assert "map=" in capsys.readouterr().out
        metrics = json.loads(metrics_path.read_text())
        assert 0.0 <= metrics["map"] <= 1.0
        assert metrics["config_echo"]["nms_threshold"] == 0.4

    def test_baseline_spellings_byte_identical(self, data_dir, tmp_path):
        a = tmp_path / "em_mode.ckpt"
        b = tmp_path / "lambda_zero.ckpt"
        common = ["train", "--data", str(data_dir / "train.jsonl"), "--steps", "4"]
        assert cli.main(common + ["--out", str(a), "--loss-mode", "em"]) == 0
        assert cli.main(common + ["--out", str(b), "--lambda2", "0"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, data_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("steps = 3\nlearning_rate = 0.02  # aggressive\n")
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "loss.jsonl"
        code = cli.main(
            [
                "train",
                "--data", str(data_dir / "train.jsonl"),
                "--out", str(ckpt),
                "--log", str(log),
                "--config", str(config),
                "--steps", "2",  # overrides the file
            ]
        )
        assert code == 0
        assert len(log.read_text().splitlines()) == 2

    def test_malformed_config_file(self, data_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("steps 3\n")
        code = cli.main(
            [
                "train",
                "--data", str(data_dir / "train.jsonl"),
                "--out", str(tmp_path / "m.ckpt"),
                "--config", str(config),
            ]
        )
        assert code == 2
        assert "key = value" in capsys.readouterr().err

    def test_unknown_config_key(self, data_dir, tmp_path, capsys):
        # the last three were config-only ablation switches, since removed
        for key, value in (
            ("momentum", "0.9"),
            ("weighted_refinement", "false"),
            ("per_pair_normalization", "true"),
            ("entang_seed_source", "current"),
        ):
            config = tmp_path / "bad.cfg"
            config.write_text(f"{key} = {value}\n")
            code = cli.main(
                [
                    "train",
                    "--data", str(data_dir / "train.jsonl"),
                    "--out", str(tmp_path / "m.ckpt"),
                    "--config", str(config),
                ]
            )
            assert code == 1
            err = capsys.readouterr().err
            assert "unknown config key" in err and key in err

    def test_conflicting_baseline_flags(self, data_dir, tmp_path, capsys):
        code = cli.main(
            [
                "train",
                "--data", str(data_dir / "train.jsonl"),
                "--out", str(tmp_path / "m.ckpt"),
                "--loss-mode", "em",
                "--lambda2", "0.01",
            ]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["reordered", "renamed", "with synonyms"])
    def test_train_checks_the_vocabulary_against_the_header(self, data_dir, tmp_path, capsys, edit):
        # a vocabulary whose class names differ from the dataset's would train a checkpoint
        # that eval refuses, so train refuses it before step 0
        data = data_dir / "train.jsonl"
        names = DatasetFile.read(data).header["class_names"]
        classes = {"reordered": names[::-1], "renamed": names[:-1] + ["stop light"], "with synonyms": names}[edit]
        vocab, ckpt, log = tmp_path / "vocab.json", tmp_path / "m.ckpt", tmp_path / "log.jsonl"
        vocab.write_text(json.dumps({"classes": classes, "synonyms": {"kitty": "cat"}}))
        args = ["train", "--data", str(data), "--out", str(ckpt), "--log", str(log), "--vocab", str(vocab)]
        code = cli.main(args + ["--steps", "2"])
        if edit == "with synonyms":
            assert code == 0 and ckpt.exists()
            return
        assert code == 2
        assert capsys.readouterr().err == f"data error: dataset {data} and vocabulary {vocab} disagree on class_names\n"
        assert not ckpt.exists() and not log.exists()

    @pytest.mark.parametrize(
        "name, message",
        [
            ("Stop Sign", " and vocabulary of its header disagree on class_names"),
            ("red stop sign", ": class names and synonyms must be one or two words of the letters a-z, got 'red stop sign'"),
        ],
        ids=["uppercase", "three words"],
    )
    def test_header_class_name_no_vocabulary_takes_is_a_data_error(self, data_dir, tmp_path, capsys, name, message):
        # without --vocab, train builds the vocabulary from the header, which lowercases names
        dataset = DatasetFile.read(data_dir / "train.jsonl")
        dataset.header["class_names"][-1] = name
        data, ckpt = tmp_path / "train.jsonl", tmp_path / "m.ckpt"
        dataset.write(data)
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt), "--steps", "2"]) == 2
        assert capsys.readouterr().err == f"data error: dataset {data}{message}\n"
        assert not ckpt.exists()

    def test_vocabulary_phrase_of_three_words_is_a_data_error(self, data_dir, tmp_path, capsys):
        # the parser matches at most two words, so such a class could never be labelled
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"classes": ["fire hydrant cap", "dog"]}))
        args = ["train", "--data", str(data_dir / "train.jsonl"), "--out", str(tmp_path / "m.ckpt")]
        code = cli.main(args + ["--vocab", str(vocab)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: bad vocabulary file {vocab}: ") and "'fire hydrant cap'" in err

    def test_missing_dataset(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "m.ckpt")]
        )
        assert code == 2

    def test_wrong_schema_dataset(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "other", "version": 9}\n')
        code = cli.main(["train", "--data", str(bad), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2

    def test_empty_dataset(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = cli.main(["train", "--data", str(empty), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2

    def test_corrupt_checkpoint(self, data_dir, tmp_path, capsys):
        fake = tmp_path / "fake.ckpt"
        fake.write_bytes(b"garbage")
        code = cli.main(
            [
                "eval",
                "--data", str(data_dir / "val.jsonl"),
                "--checkpoint", str(fake),
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err


class TestOutOfRangeTau:
    # eval takes no --tau (TestEvalSettings)
    @pytest.mark.parametrize("command", ["train"])
    @pytest.mark.parametrize("tau", ["0", "1", "1.5"])
    def test_usage_error_before_the_dataset_is_read(self, command, tau, tmp_path, capsys):
        # the dataset does not exist: reading it would exit 2
        args = [command, "--data", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "out"), "--tau", tau]
        code = cli.main(args)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"usage error: tau must lie in (0, 1), got {float(tau)}"]
        assert not (tmp_path / "out").exists()


class TestNegativeSeed:
    """A negative seed exits 1 with one line naming it, before any file is read or written."""

    @pytest.mark.parametrize(
        "command, seed_args, message",
        [
            ("synth", ["--seed", "-1"], "--seed must be non-negative, got -1"),
            ("train", ["--seed", "-1"], "seed must be non-negative, got -1"),
            ("train", ["--config", "{config}"], "{config}: line 1: seed must be non-negative, got -1"),
            ("gradcheck", ["--seed", "-1"], "seed must be non-negative, got -1"),
        ],
        ids=["synth", "train flag", "train config key", "gradcheck"],
    )
    def test_usage_error(self, command, seed_args, message, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("seed = -1\n")
        inputs = {
            "synth": ["--out", str(tmp_path / "out")],
            # the dataset does not exist: reading it would exit 2
            "train": ["--data", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "m.ckpt")],
            "gradcheck": [],
        }[command]
        args = [command, *inputs, *(a.format(config=config) for a in seed_args)]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"usage error: {message.format(config=config)}"]
        assert list(tmp_path.iterdir()) == [config]


class TestTrainSettings:
    """train takes no eval setting: neither flag, nor either key in its config file."""

    @pytest.mark.parametrize("flag", ["--nms-threshold", "--score-floor"])
    def test_eval_flag_is_a_usage_error_before_any_file_is_opened(self, flag, tmp_path, capsys):
        # neither the dataset, the vocabulary nor the registry exists: reading any would exit 2
        files = ["--data", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "log")]
        files += ["--vocab", str(tmp_path / "v.json"), "--registry", str(tmp_path / "r.json")]
        assert cli.main(["train", *files, "--steps", "3", flag, "0.9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"usage error: unrecognized arguments: {flag} 0.9"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", trainer.EVAL_SETTINGS)
    def test_eval_key_in_the_config_file_is_a_usage_error(self, key, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text(f"steps = 3\n{key} = 0.3\n")
        args = ["train", "--data", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "m.ckpt"), "--config", str(config)]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"usage error: {config}: line 2: unknown config key {key!r}"]
        assert list(tmp_path.iterdir()) == [config]


class TestConfigFile:
    """Every config-file rule, through cli.main. Each entry is parsed by its key's flag; a bad entry exits, in file
    order, before the dataset is read and with nothing written, on one stderr line naming the file and line.

    TestTrainSettings covers an eval setting as a key, and TestNegativeSeed a value TrainConfig refuses."""

    @pytest.mark.parametrize(
        "text, code, message",
        [
            pytest.param("steps 3\n", 2, "data error: {cfg}: line 1: expected 'key = value', got 'steps 3'", id="no equals"),
            pytest.param("= 5\n", 2, "data error: {cfg}: line 1: expected 'key = value', got '= 5'", id="empty key"),
            pytest.param("steps = 3\nsteps = 5\n", 2, "data error: {cfg}: line 2: steps is set twice", id="set twice"),
            pytest.param("momentum = 0.9\n", 1, "usage error: {cfg}: line 1: unknown config key 'momentum'", id="unknown key"),
            pytest.param(
                "steps = abc\n", 1, "usage error: {cfg}: line 1: argument --steps: invalid int value: 'abc'", id="bad int"
            ),
            pytest.param(
                "loss_mode = foo\n",
                1,
                "usage error: {cfg}: line 1: argument --loss-mode: invalid choice: 'foo' (choose from 'em', 'em+sg')",
                id="bad choice",
            ),
            pytest.param(
                "steps = 2\ntau = 1.5\n", 1, "usage error: {cfg}: line 2: tau must lie in (0, 1), got 1.5", id="out of range"
            ),
            pytest.param(
                "batch_size = 0\n", 1, "usage error: {cfg}: line 1: batch_size must be positive, got 0", id="not positive"
            ),
            pytest.param(
                "lambda2 = nan\n", 1, "usage error: {cfg}: line 1: lambda2 must be finite, got nan", id="not finite"
            ),
            pytest.param(
                "loss_mode = em\nlambda2 = 0.5\n",
                1,
                "usage error: {cfg}: line 2: loss_mode='em' conflicts with lambda2=0.5; "
                "the exact-match baseline is lambda2=0 and vice versa",
                id="entries that conflict",
            ),
            pytest.param(
                "# steps\n\nsteps = 2 # two\nmomentum = 0.9\nsteps 3\n",
                1,
                "usage error: {cfg}: line 4: unknown config key 'momentum'",
                id="first bad entry in file order",
            ),
            pytest.param(
                b"steps = 2\nloss_mode = \xff\n",
                2,
                "data error: {cfg}: line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte",
                id="not UTF-8",
            ),
            pytest.param(None, 2, "data error: cannot read {cfg}: No such file or directory", id="missing file"),
        ],
    )
    def test_bad_entry_exits_before_the_dataset_is_read(self, text, code, message, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        if text is not None:
            config.write_bytes(text if isinstance(text, bytes) else text.encode())
        before = sorted(tmp_path.iterdir())
        # the dataset does not exist: reading it would exit 2 naming it
        files = ["--data", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "log")]
        assert cli.main(["train", *files, "--config", str(config)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message.format(cfg=config)]
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("tau = 1.5\n", ["--tau", "0.5"], "tau must lie in (0, 1), got 1.5"),
            ("steps = 0\n", ["--steps", "2"], "steps must be positive, got 0"),
        ],
        ids=["tau", "steps"],
    )
    def test_a_bad_entry_is_refused_though_a_flag_overrides_it(self, text, flags, message, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text(text)
        files = ["--data", str(tmp_path / "d.jsonl"), "--out", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "log")]
        assert cli.main(["train", *files, "--config", str(config), *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [f"usage error: {config}: line 1: {message}"]
        assert list(tmp_path.iterdir()) == [config]

    def train(self, data_dir, out, text, *flags):
        """The TrainConfig that capdet train, given a config file of text and flags, trained with (exit 0)."""
        config = out.with_suffix(".cfg")
        config.write_text(text)
        with mock.patch.object(trainer, "train", wraps=trainer.train) as spy:
            args = ["train", "--data", str(data_dir / "train.jsonl"), "--out", str(out), "--config", str(config)]
            assert cli.main([*args, *flags]) == 0
        return spy.call_args.args[3]

    def test_values_take_their_flags_types(self, data_dir, tmp_path, capsys):
        config = self.train(data_dir, tmp_path / "m.ckpt", "steps = 2\nlearning_rate = 0.02\nloss_mode = em+sg\n")
        assert config == TrainConfig(steps=2, learning_rate=0.02, loss_mode="em+sg")
        assert (type(config.steps), type(config.learning_rate)) == (int, float)
        assert capsys.readouterr().out == f"trained 2 steps (em+sg) -> {tmp_path / 'm.ckpt'}\n"

    @pytest.mark.parametrize(
        "text, expected",
        [("loss_mode = em\n", {"lambda2": 0.0}), ("lambda2 = 0\n", {"loss_mode": "em"})],
        ids=["loss_mode = em", "lambda2 = 0"],
    )
    def test_baseline_spelling_sets_the_other(self, text, expected, data_dir, tmp_path, capsys):
        config = self.train(data_dir, tmp_path / "m.ckpt", text + "steps = 2\n")
        assert {key: getattr(config, key) for key in expected} == expected
        assert capsys.readouterr().out == f"trained 2 steps (em) -> {tmp_path / 'm.ckpt'}\n"

    def test_baseline_spellings_byte_identical(self, data_dir, tmp_path):
        em, zero, flags = tmp_path / "em.ckpt", tmp_path / "zero.ckpt", tmp_path / "flags.ckpt"
        configs = [
            self.train(data_dir, em, "loss_mode = em\nsteps = 2\n"),
            self.train(data_dir, zero, "lambda2 = 0\nsteps = 2\n"),
            # a flag spelling with a file spelling of the same baseline
            self.train(data_dir, flags, "lambda2 = 0.0\n", "--loss-mode", "em", "--steps", "2"),
        ]
        assert configs[0] == configs[1] == configs[2]
        assert em.read_bytes() == zero.read_bytes() == flags.read_bytes()


class TestEvalSettings:
    """eval takes the two settings inference reads; every other config flag, and --config, is a usage error."""

    @pytest.mark.parametrize(
        "flag",
        ["--config"]
        + ["--" + f.name.replace("_", "-") for f in dataclasses.fields(TrainConfig) if f.name not in trainer.EVAL_SETTINGS],
    )
    def test_training_flag_is_a_usage_error_before_any_file_is_opened(self, flag, tmp_path, capsys):
        # neither the dataset nor the checkpoint exists: reading either would exit 2
        files = ["--data", str(tmp_path / "d.jsonl"), "--checkpoint", str(tmp_path / "m.ckpt"), "--out", str(tmp_path / "m.json")]
        assert cli.main(["eval", *files, flag, "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"usage error: unrecognized arguments: {flag} 1"]
        assert list(tmp_path.iterdir()) == []

    def test_settings_reach_the_metrics(self, eval_inputs, tmp_path):
        dataset, blob, _ = eval_inputs
        data, ckpt, out = tmp_path / "val.jsonl", tmp_path / "m.ckpt", tmp_path / "m.json"
        data.write_bytes(dataset)
        ckpt.write_bytes(blob)
        args = ["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(out)]
        assert cli.main(args + ["--nms-threshold", "0.3", "--score-floor", "0.1"]) == 0
        params, scenes = scorenet.load_checkpoint(ckpt), synthbench.load_dataset(data)
        config = TrainConfig(nms_threshold=0.3, score_floor=0.1)
        expected = trainer.evaluate(params, scenes, config)
        assert json.loads(out.read_text()) == json.loads(json.dumps(trainer.metrics_report(expected, config)))
        # each setting alone, the other at its default, scores otherwise
        for one in (TrainConfig(nms_threshold=0.3), TrainConfig(score_floor=0.1)):
            assert trainer.evaluate(params, scenes, one) != expected

    def test_the_metrics_echo_only_the_settings_inference_read(self, eval_inputs, tmp_path):
        dataset, blob, _ = eval_inputs
        data, ckpt, out = tmp_path / "val.jsonl", tmp_path / "m.ckpt", tmp_path / "m.json"
        data.write_bytes(dataset)
        ckpt.write_bytes(blob)
        args = ["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(out)]
        assert cli.main(args + ["--nms-threshold", "0.3"]) == 0
        report = json.loads(out.read_text())
        assert report["config_echo"] == {"nms_threshold": 0.3, "score_floor": 0.05}
        assert "seed" not in report


# one row per corruption: header edits, or a checkpoint built for another layout
CORRUPTIONS = {
    "missing key": {"edit": lambda h: h.pop("num_heads")},
    "bogus dtype": {"edit": lambda h: h.update(dtype="bogus")},
    "integer dtype": {"edit": lambda h: h.update(dtype="<i8")},
    "reordered class_names": {"reorder": True},
    "feature-dim mismatch": {"extra_dims": 4},
}


class TestCorruptCheckpoint:
    def _eval(self, data_dir, tmp_path, capsys, **spec):
        header = DatasetFile.read(data_dir / "val.jsonl").header
        names = header["class_names"][::-1] if spec.get("reorder") else header["class_names"]
        registry = default_registry()
        cats = {c: tuple(registry.values[c]) for c in registry.categories}
        params = scorenet.init_params(header["feature_dim"] + spec.get("extra_dims", 0), names, cats, 1, seed=0)
        ckpt = tmp_path / "m.ckpt"
        scorenet.save_checkpoint(params, ckpt)
        if "edit" in spec:
            line, payload = ckpt.read_bytes()[len(scorenet.CHECKPOINT_MAGIC) :].split(b"\n", 1)
            fields = json.loads(line)
            spec["edit"](fields)
            ckpt.write_bytes(scorenet.CHECKPOINT_MAGIC + json.dumps(fields).encode() + b"\n" + payload)
        out = tmp_path / "m.json"
        code = cli.main(["eval", "--data", str(data_dir / "val.jsonl"), "--checkpoint", str(ckpt), "--out", str(out)])
        return code, capsys.readouterr().err, out

    def test_intact_checkpoint_evaluates(self, data_dir, tmp_path, capsys):
        code, _, out = self._eval(data_dir, tmp_path, capsys)
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("case", list(CORRUPTIONS))
    def test_exit_two_with_one_line(self, case, data_dir, tmp_path, capsys):
        code, err, out = self._eval(data_dir, tmp_path, capsys, **CORRUPTIONS[case])
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("data error") and "Traceback" not in err
        assert "checkpoint" in err and str(tmp_path / "m.ckpt") in err
        assert not out.exists()


def with_header(header, payload):
    """Checkpoint bytes from a header dict and a payload."""
    return scorenet.CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + payload


# case -> (the message after "data error: ", edit of the header and the payload of a checkpoint that matches the dataset);
# TestCorruptCheckpoint runs a missing key, a bad dtype and a layout unlike the dataset's, TestDeeplyNestedJson a header
# that is not JSON
CHECKPOINT_RULES = {
    "bad magic": ("{ckpt}: not a capdet checkpoint (bad magic)", lambda h, p: b"garbage"),
    "header not an object": (
        "{ckpt}: checkpoint header must be a JSON object, got []",
        lambda h, p: scorenet.CHECKPOINT_MAGIC + b"[]\n" + p,
    ),
    "truncated payload": ("{ckpt}: payload has ", lambda h, p: with_header(h, p[:-8])),
    "surplus payload": ("{ckpt}: payload has ", lambda h, p: with_header(h, p + p[:8])),
    "feature_dim a string": (
        "{ckpt}: checkpoint header needs 'feature_dim' as a positive integer",
        lambda h, p: with_header({**h, "feature_dim": str(h["feature_dim"])}, p),
    ),
    "num_heads a float": (
        "{ckpt}: checkpoint header needs 'num_heads' as a positive integer",
        lambda h, p: with_header({**h, "num_heads": float(h["num_heads"])}, p),
    ),
    "class_names not strings": (
        "{ckpt}: checkpoint header needs 'class_names' as a non-empty list of strings",
        lambda h, p: with_header({**h, "class_names": list(range(len(h["class_names"])))}, p),
    ),
    "empty category": (
        "{ckpt}: checkpoint header needs 'category_values' as a map from category to non-empty lists of distinct strings",
        lambda h, p: with_header({**h, "category_values": {**h["category_values"], "color": []}}, p),
    ),
    "extra header key": ("{ckpt}: unknown checkpoint header key 'extra'", lambda h, p: with_header({**h, "extra": 1}, p)),
    "repeated category value": (
        "{ckpt}: checkpoint header needs 'category_values' as a map from category to non-empty lists of distinct strings",
        lambda h, p: with_header({**h, "category_values": {**h["category_values"], "color": ["red", "red"]}}, p),
    ),
}


class TestCheckpointRules:
    """README's checkpoint rules, through capdet eval: exit 2, one line naming the checkpoint, nothing written."""

    def _eval(self, edit, data_dir, train_checkpoint, tmp_path):
        line, payload = train_checkpoint.read_bytes()[len(scorenet.CHECKPOINT_MAGIC) :].split(b"\n", 1)
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "m.json"
        ckpt.write_bytes(edit(json.loads(line), payload))
        code = cli.main(["eval", "--data", str(data_dir / "train.jsonl"), "--checkpoint", str(ckpt), "--out", str(out)])
        return code, ckpt, out

    @pytest.mark.parametrize("case", list(CHECKPOINT_RULES))
    def test_exit_two_naming_the_checkpoint(self, case, data_dir, train_checkpoint, tmp_path, capsys):
        message, edit = CHECKPOINT_RULES[case]
        code, ckpt, out = self._eval(edit, data_dir, train_checkpoint, tmp_path)
        assert code == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"data error: {message.format(ckpt=ckpt)}")
        assert not out.exists()

    def test_a_header_without_dtype_reads_as_f8(self, data_dir, train_checkpoint, tmp_path):
        header_without_dtype = lambda h, p: with_header({k: v for k, v in h.items() if k != "dtype"}, p)
        code, _, out = self._eval(header_without_dtype, data_dir, train_checkpoint, tmp_path)
        assert code == 0 and out.exists()


class TestBadCaptions:
    @pytest.mark.parametrize(
        "captions", [[], ["   "], "a red cat"], ids=["no captions", "blank caption", "string captions"]
    )
    def test_exit_two_naming_file_and_line(self, captions, data_dir, tmp_path, capsys):
        data = DatasetFile.read(data_dir / "train.jsonl")
        data.records[0]["captions"] = captions
        bad = tmp_path / "bad.jsonl"
        data.write(bad)
        code = cli.main(["train", "--data", str(bad), "--out", str(tmp_path / "m.ckpt"), "--steps", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert f"{bad}: scene 1: record needs 'captions'" in err


# case -> (the part of the file the error names, edit of the header and of the first scene's first GT record)
BAD_DATASETS = {
    "no feature_dim": ("header", lambda header, gt: header.pop("feature_dim")),
    "no class_names": ("header", lambda header, gt: header.pop("class_names")),
    "class -1": ("scene 1", lambda header, gt: gt.update({"class": -1})),
    "class 99": ("scene 1", lambda header, gt: gt.update({"class": 99})),
    "class 1.7": ("scene 1", lambda header, gt: gt.update({"class": 1.7})),
    "infinite box": ("scene 1", lambda header, gt: gt.update(box=[0.1, 0.1, float("inf"), 0.5])),
    "degenerate box": ("scene 1", lambda header, gt: gt.update(box=[0.5, 0.1, 0.4, 0.5])),
    "other schema": ("header", lambda header, gt: header.update(schema="other")),
    "empty class_names": ("header", lambda header, gt: header.update(class_names=[])),
    "repeated class name": ("header", lambda header, gt: header["class_names"].append(header["class_names"][0])),
}


@pytest.fixture(scope="module")
def train_checkpoint(data_dir, tmp_path_factory):
    """An untrained checkpoint that matches the train split's header."""
    header = DatasetFile.read(data_dir / "train.jsonl").header
    registry = default_registry()
    cats = {c: tuple(registry.values[c]) for c in registry.categories}
    params = scorenet.init_params(header["feature_dim"], header["class_names"], cats, 1, seed=0)
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    scorenet.save_checkpoint(params, path)
    return path


class TestBadDatasetRecords:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("case", list(BAD_DATASETS))
    def test_exit_two_naming_file_and_line(self, case, command, data_dir, train_checkpoint, tmp_path, capsys):
        where, edit = BAD_DATASETS[case]
        data = DatasetFile.read(data_dir / "train.jsonl")
        edit(data.header, data.records[0]["gt"][0])
        bad = tmp_path / "bad.jsonl"
        data.write(bad)
        if command == "train":
            args = ["train", "--data", str(bad), "--out", str(tmp_path / "m.ckpt"), "--steps", "1"]
        else:
            args = ["eval", "--data", str(bad), "--checkpoint", str(train_checkpoint), "--out", str(tmp_path / "m.json")]
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert f"{bad}: {where}: " in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_blank_line_before_the_header_is_not_skipped(self, command, data_dir, train_checkpoint, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n" + (data_dir / "train.jsonl").read_bytes())
        args = ["--data", str(bad), "--out", str(tmp_path / "out")]
        if command == "train":
            args = ["train", *args, "--steps", "1"]
        else:
            args = ["eval", *args, "--checkpoint", str(train_checkpoint)]
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert f"{bad}: header: not JSON: Expecting value" in err


def set_first_row(which, value):
    """An edit that sets the first row of the first scene's proposal boxes or features to value."""

    def edit(data):
        boxes, features = data.arrays(0)
        (boxes if which == "boxes" else features)[0] = value
        data.set_arrays(0, boxes, features)

    return edit


def set_first_gt(**fields):
    """An edit that sets fields of the first scene's first GT record."""
    return lambda data: data.records[0]["gt"][0].update(fields)


def set_header(**fields):
    return lambda data: data.header.update(fields)


def set_record(**fields):
    return lambda data: data.records[0].update(fields)


def add_proposals(scene, count):
    """An edit that adds count to one scene's proposal count, and leaves its payload as it was."""
    return lambda data: data.records[scene].update(proposals=data.records[scene]["proposals"] + count)


def cut_last_payload(nbytes):
    return lambda data: data.payloads.__setitem__(-1, data.payloads[-1][:-nbytes])


# case -> (the message after "<file>: ", an edit of the train split (DatasetFile)); the split holds six scenes of
# 34, 34, 16, 28, 16 and 34 proposals, a row of 4 + 12 values
DATASET_RULES = {
    "version 1": ("header: expected schema 'capdet-synth' version 3, got version 1", set_header(version=1)),
    "version 2": ("header: expected schema 'capdet-synth' version 3, got version 2", set_header(version=2)),
    "no universe": ("header: header needs 'universe' as a 16-digit hex fingerprint", lambda d: d.header.pop("universe")),
    "universe not hex": (
        "header: header needs 'universe' as a 16-digit hex fingerprint, got 'NOT-A-HEX-STRING'",
        set_header(universe="NOT-A-HEX-STRING"),
    ),
    "no scene count": ("header: header needs 'scenes' as a non-negative integer", lambda d: d.header.pop("scenes")),
    "negative scene count": ("header: header needs 'scenes' as a non-negative integer, got -1", set_header(scenes=-1)),
    # the framing: each payload is as long as its record's count says, and the file holds the header's count of scenes
    "partial row": ("scene 6: the payload needs 4352 bytes, and the file has 4344 left", cut_last_payload(8)),
    "no boxes": ("scene 6: the payload needs 4352 bytes, and the file has 0 left", cut_last_payload(4352)),
    "row counts differ": ("scene 6: the payload needs 4480 bytes, and the file has 4352 left", add_proposals(-1, 1)),
    "fewer proposals than rows": ("the file goes on after the last of its 6 scenes, 128 bytes more", add_proposals(-1, -1)),
    "bytes after the last scene": (
        "the file goes on after the last of its 6 scenes, 1 bytes more",
        lambda d: d.payloads.__setitem__(-1, d.payloads[-1] + b"\n"),
    ),
    "a scene too few": ("the file ends after 6 of its 7 scenes", set_header(scenes=7)),
    "a scene too many": ("the file goes on after the last of its 5 scenes, ", set_header(scenes=5)),
    "a trillion proposals": (
        f"scene 1: the payload needs {10**12 * 128} bytes, and the file has ",
        set_record(proposals=10**12),
    ),
    "no proposals": ("scene 1: record needs 'proposals' as a positive integer", lambda d: d.records[0].pop("proposals")),
    "zero proposals": ("scene 1: record needs 'proposals' as a positive integer, got 0", set_record(proposals=0)),
    "proposals a float": ("scene 1: record needs 'proposals' as a positive integer, got 34.0", set_record(proposals=34.0)),
    # the payload's values
    "nan box": ("scene 1: non-finite box coordinate", set_first_row("boxes", float("nan"))),
    "inf box": ("scene 1: non-finite box coordinate", set_first_row("boxes", float("inf"))),
    "degenerate proposal box": ("scene 1: degenerate box: (0.5, 0.1, 0.4, 0.5)", set_first_row("boxes", [0.5, 0.1, 0.4, 0.5])),
    "nan feature": ("scene 1: non-finite region features", set_first_row("features", float("nan"))),
    "-inf feature": ("scene 1: non-finite region features", set_first_row("features", float("-inf"))),
    # spellings and types the writer never produces
    "version 3.0": ("header: expected schema 'capdet-synth' version 3, got version 3.0", set_header(version=3.0)),
    "version 2.0": ("header: expected schema 'capdet-synth' version 3, got version 2.0", set_header(version=2.0)),
    "null image_id": ("scene 1: record needs 'image_id' as a string, got None", set_record(image_id=None)),
    "numeric string in a GT box": (
        "scene 1: GT needs 'box' as a list of four JSON numbers, got ['0.1', '0.2', '0.3', '0.4']",
        set_first_gt(box=["0.1", "0.2", "0.3", "0.4"]),
    ),
    "boolean in a GT box": (
        "scene 1: GT needs 'box' as a list of four JSON numbers, got [0.1, 0.2, True, 0.4]",
        set_first_gt(box=[0.1, 0.2, True, 0.4]),
    ),
    "integer too large for a float in a GT box": (
        "scene 1: int too large to convert to float",
        set_first_gt(box=[0, 0, 10**400, 1]),
    ),
    "numbers as a GT attribute": (
        "scene 1: GT needs 'attributes' as a list of [category, value] pairs of strings, got [[1, 2]]",
        set_first_gt(attributes=[[1, 2]]),
    ),
    # keys and pairs the writer never writes
    "extra header key": ("header: unknown header key 'extra'", set_header(extra="x")),
    "extra record key": ("scene 1: unknown record key 'extra'", set_record(extra="x")),
    "schema-2 boxes key": ("scene 1: unknown record key 'boxes'", set_record(boxes="AAAA")),
    "extra GT key": ("scene 1: unknown GT key 'extra'", set_first_gt(extra="x")),
    # fields the record lacks or holds as another type
    "gt a number": ("scene 1: record needs 'gt' as a list of GT objects, got 5", set_record(gt=5)),
    "gt a string": ("scene 1: record needs 'gt' as a list of GT objects, got 'ab'", set_record(gt="ab")),
    "a string as a GT entry": (
        "scene 1: record needs 'gt' as a list of GT objects, got [",
        lambda d: d.records[0]["gt"].append("x"),
    ),
    "GT without class": ("scene 1: GT needs 'class' as an integer", lambda d: d.records[0]["gt"][0].pop("class")),
    "confusable_pairs not a list": (
        "header: header needs 'confusable_pairs' as a list of [a, b] pairs, got 5",
        set_header(confusable_pairs=5),
    ),
    "pair naming an unknown class": (
        "header: confusable pair ['apple', 'plum'] is not two distinct names from class_names",
        lambda d: d.header["confusable_pairs"].append(["apple", "plum"]),
    ),
    "one-name pair": (
        "header: confusable pair ['apple'] is not two distinct names from class_names",
        lambda d: d.header["confusable_pairs"].append(["apple"]),
    ),
}


class TestDatasetRules:
    """The schema-3 rules for a dataset's header, records and payloads: exit 2, one line, nothing written."""

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("case", list(DATASET_RULES))
    def test_exit_two_naming_file_and_line(self, case, command, data_dir, train_checkpoint, tmp_path, capsys):
        message, edit = DATASET_RULES[case]
        data = DatasetFile.read(data_dir / "train.jsonl")
        assert [r["proposals"] for r in data.records] == [34, 34, 16, 28, 16, 34]
        edit(data)
        bad, out = tmp_path / "bad.jsonl", tmp_path / "out"
        data.write(bad)
        if command == "train":
            args = ["train", "--data", str(bad), "--out", str(out), "--steps", "1"]
        else:
            args = ["eval", "--data", str(bad), "--checkpoint", str(train_checkpoint), "--out", str(out)]
        assert cli.main(args) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"data error: {bad}: {message}")
        assert not out.exists()

    def test_a_split_piped_in_is_named(self, data_dir, tmp_path):
        # each payload's size is checked against the bytes the file has left, which a pipe cannot tell
        args = ["train", "--data", "/dev/stdin", "--out", str(tmp_path / "m.ckpt"), "--steps", "1"]
        blob = (data_dir / "train.jsonl").read_bytes()
        result = subprocess.run([sys.executable, "-m", "capdet.cli", *args], input=blob, capture_output=True)
        assert result.returncode == 2
        assert result.stderr.decode().splitlines() == ["data error: cannot read /dev/stdin: Illegal seek"]

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_split_cut_after_any_scene_exits_two(self, command, data_dir, train_checkpoint, tmp_path, capsys):
        # a file cut where a line begins still frames whole scenes; the header's count tells it is short
        blob = (data_dir / "train.jsonl").read_bytes()
        bad, out = tmp_path / "cut.jsonl", tmp_path / "out"
        ends = DatasetFile.parse(blob).ends()
        assert ends[-1] == len(blob)
        for kept, end in enumerate(ends[:-1]):
            bad.write_bytes(blob[:end])
            if command == "train":
                args = ["train", "--data", str(bad), "--out", str(out), "--steps", "1"]
            else:
                args = ["eval", "--data", str(bad), "--checkpoint", str(train_checkpoint), "--out", str(out)]
            assert cli.main(args) == 2
            assert capsys.readouterr().err == f"data error: {bad}: the file ends after {kept} of its 6 scenes\n"
            assert not out.exists()


READERS = ["captions", "dataset header", "dataset record", "train dataset record", "train config", "checkpoint header"]


class TestDeeplyNestedJson:
    """A line of 100,000 '[' (json.loads raises RecursionError) or a line holding a 0xff byte (not UTF-8) in any
    file capdet reads: exit 2 and one line naming the file, and the line of a line-delimited file or the header
    or scene of a dataset."""

    BAD_LINES = {"nested": b"[" * 100000, "0xff": b'{"image_id": "a\xff", "captions": ["a cat"]}'}

    @pytest.mark.parametrize(
        "reader, kind",
        [pytest.param(r, "nested", id=r) for r in READERS]
        + [pytest.param(r, "0xff", id=f"{r}, 0xff") for r in READERS],
    )
    def test_exit_two_naming_file_and_line(self, reader, kind, data_dir, train_checkpoint, tmp_path, capsys):
        bad, out, line = tmp_path / "bad", tmp_path / "out", self.BAD_LINES[kind]
        data, checkpoint = str(data_dir / "train.jsonl"), str(train_checkpoint)
        if reader == "checkpoint header":
            bad.write_bytes(scorenet.CHECKPOINT_MAGIC + line + b"\n")
            named = f"{bad}: corrupt checkpoint header"
        elif reader in ("captions", "train config"):
            lines = {"captions": [b'{"image_id": "a", "captions": ["a cat"]}', b""], "train config": [b"steps = 1", b""]}[reader]
            lines[1] = line
            bad.write_bytes(b"\n".join(lines) + b"\n")
            named = f"{bad}: line 2: "
        else:
            dataset = DatasetFile.read(data_dir / "train.jsonl")
            if reader == "dataset header":
                dataset.header, named = line, f"{bad}: header: "
            else:
                dataset.records[0], named = line, f"{bad}: scene 1: "
            dataset.write(bad)
        if kind == "0xff" and reader != "checkpoint header":
            named += "not UTF-8: 'utf-8' codec can't decode byte 0xff"
        args = {
            "captions": ["parse", "--captions", str(bad)],
            "train dataset record": ["train", "--data", str(bad), "--steps", "1"],
            "train config": ["train", "--data", data, "--config", str(bad)],
            "checkpoint header": ["eval", "--data", data, "--checkpoint", str(bad)],
        }.get(reader, ["eval", "--data", str(bad), "--checkpoint", checkpoint])
        code = cli.main(args + ["--out", str(out)])
        (err,) = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err.startswith(f"data error: {named}")
        assert not out.exists()


# table -> (the table, what its messages call the object); each property below edits one valid object of it
FIELD_TABLES = {
    "dataset header": (synthbench.HEADER_FIELDS, "header"),
    "dataset record": (synthbench.RECORD_FIELDS, "record"),
    "GT entry": (synthbench.GT_FIELDS, "GT"),
    "checkpoint header": (scorenet.CHECKPOINT_FIELDS, "checkpoint header"),
    "vocabulary": (textgraph.VOCABULARY_FIELDS, "vocabulary"),
    "registry": (textgraph.REGISTRY_FIELDS, "registry"),
    "registry category": (textgraph.CATEGORY_FIELDS, "registry category"),
    "caption record": (textgraph.CAPTION_FIELDS, "caption record"),
}
# one value of each JSON type: null, boolean, number, string, array and object
JSON_TYPES = {"null": None, "boolean": True, "number": 1.5, "string": "x", "array": [], "object": {}}


def json_type(value):
    return {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string", list: "array"}.get(
        type(value), "object"
    )


class TestFieldTables:
    """One property per field table, through cli.main: replacing any field of a valid object with a value of another
    JSON type, or adding a key outside the table, exits 2 with one line that names the key, and writes nothing."""

    def _run(self, table, edit, data_dir, checkpoint, work):
        """cli.main's exit code and stderr lines after edit has changed one valid object of table in its file."""
        out, bad = work / "out", work / "bad"
        out.unlink(missing_ok=True)
        data, ckpt = str(data_dir / "train.jsonl"), str(checkpoint)
        if table in ("dataset header", "dataset record", "GT entry"):
            dataset = DatasetFile.read(data_dir / "train.jsonl")
            edit({"dataset header": dataset.header, "dataset record": dataset.records[0], "GT entry": dataset.records[0]["gt"][0]}[table])
            dataset.write(bad)
            args = ["eval", "--data", str(bad), "--checkpoint", ckpt]
        elif table == "checkpoint header":
            line, payload = checkpoint.read_bytes()[len(scorenet.CHECKPOINT_MAGIC) :].split(b"\n", 1)
            header = json.loads(line)
            edit(header)
            bad.write_bytes(with_header(header, payload))
            args = ["eval", "--data", data, "--checkpoint", str(bad)]
        else:
            captions = work / "captions.jsonl"
            record = {"image_id": "a", "captions": ["a red cat"]}
            args = ["parse", "--captions", str(captions)]
            if table == "caption record":
                edit(record)
            else:
                flag, name = ("--vocab", "vocab.json") if table == "vocabulary" else ("--registry", "registry.json")
                doc = json.loads(resources.files("capdet.data").joinpath(name).read_text())
                edit(doc["categories"][0] if table == "registry category" else doc)
                bad.write_text(json.dumps(doc))
                args += [flag, str(bad)]
            captions.write_text(json.dumps(record) + "\n")
        code, err, caught = run_quietly(args + ["--out", str(out)])
        assert caught == [] and not out.exists()
        return code, err

    @pytest.mark.parametrize("table", list(FIELD_TABLES))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_retyped_or_unknown_key_is_named(self, table, data_dir, train_checkpoint, tmp_path_factory, data):
        fields, what = FIELD_TABLES[table]
        work = tmp_path_factory.getbasetemp()
        if data.draw(st.booleans(), label="retype a field"):
            key = data.draw(st.sampled_from(sorted(fields)), label="key")

            def edit(obj):
                others = [t for t in JSON_TYPES if t != json_type(obj[key])]
                obj[key] = JSON_TYPES[data.draw(st.sampled_from(others), label="type")]

            # the dataset's schema and version are checked first, with their own message
            named = repr(key) if key not in ("schema", "version") else "expected schema 'capdet-synth' version 3"
        else:
            key = data.draw(st.text(max_size=8).filter(lambda k: k not in fields), label="unknown key")
            edit = lambda obj: obj.update({key: 1})
            named = f"unknown {what} key {key!r}"
        code, err = self._run(table, edit, data_dir, train_checkpoint, work)
        assert code == 2
        (line,) = err
        assert line.startswith("data error: ") and named in line


class TestNonFiniteNumbers:
    """No NaN or infinity reaches a checkpoint or a metrics file; each case is one stderr line."""

    @pytest.mark.parametrize(
        "key, value", [("learning_rate", "nan"), ("learning_rate", "inf"), ("lambda1", "nan"), ("lambda2", "inf")]
    )
    def test_train_setting_is_a_usage_error(self, key, value, data_dir, tmp_path, capsys, recwarn):
        out = tmp_path / "m.ckpt"
        flag = "--" + key.replace("_", "-")
        code = cli.main(["train", "--data", str(data_dir / "train.jsonl"), "--out", str(out), "--steps", "1", flag, value])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"usage error: {key} must be finite, got {float(value)}"]
        assert not out.exists()
        assert not recwarn.list

    @pytest.mark.parametrize(
        "value, code, message",
        [
            pytest.param(float("nan"), 2, "checkpoint holds non-finite parameters", id="nan"),
            pytest.param(float("inf"), 2, "checkpoint holds non-finite parameters", id="inf"),
            pytest.param(1e308, 3, "non-finite object scores", id="huge"),
        ],
    )
    def test_eval_checkpoint_payload(self, value, code, message, data_dir, tmp_path, capsys, recwarn):
        data = data_dir / "val.jsonl"
        dataset = DatasetFile.read(data)
        header, first = dataset.header, dataset.records[0]
        registry = default_registry()
        cats = {c: tuple(registry.values[c]) for c in registry.categories}
        params = scorenet.init_params(header["feature_dim"], header["class_names"], cats, 1, seed=0)
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "m.json"
        scorenet.save_checkpoint(params, ckpt)
        # save_checkpoint refuses non-finite parameters, so overwrite the payload
        payload = np.full(params.flat.size, value).astype("<f8").tobytes()
        ckpt.write_bytes(ckpt.read_bytes()[: -len(payload)] + payload)
        assert cli.main(["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(out)]) == code
        (err,) = capsys.readouterr().err.splitlines()
        assert message in err and "Traceback" not in err
        # a load error names the file once, a numerical one the scene
        if code == 2:
            assert err.count(str(ckpt)) == 1
        else:
            assert repr(first["image_id"]) in err
        assert not out.exists()
        assert not recwarn.list

    def test_missing_checkpoint_named_once(self, data_dir, tmp_path, capsys):
        ckpt = tmp_path / "missing.ckpt"
        args = ["eval", "--data", str(data_dir / "val.jsonl"), "--checkpoint", str(ckpt), "--out", str(tmp_path / "m.json")]
        assert cli.main(args) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"data error: bad checkpoint {ckpt}: No such file or directory"

    def test_non_finite_parameters_in_training_exit_three(self, data_dir, tmp_path, capsys):
        out = tmp_path / "m.ckpt"

        def overflowing_step(self, params_flat, grad_flat):
            params_flat[0] = np.inf

        with mock.patch.object(trainer.Adagrad, "step", overflowing_step):
            code = cli.main(["train", "--data", str(data_dir / "train.jsonl"), "--out", str(out), "--steps", "2"])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == ["numerical failure: non-finite parameters after step 0"]
        assert not out.exists()

    def test_overflowing_learning_rate_is_one_line(self, data_dir, tmp_path):
        # a real process, so numpy warnings would reach its stderr
        out = tmp_path / "m.ckpt"
        args = ["train", "--data", str(data_dir / "train.jsonl"), "--out", str(out), "--steps", "5", "--learning-rate", "1e308"]
        result = subprocess.run([sys.executable, "-m", "capdet.cli", *args], capture_output=True, text=True)
        assert result.returncode == 3
        (err,) = result.stderr.splitlines()
        assert err.startswith("numerical failure: non-finite loss at step 1 ")
        assert not out.exists()


class TestOversizedSettings:
    """A setting too large exits 1 with one line, not a traceback: a batch larger than the split is refused by name
    before anything is allocated, and a million heads carry numpy's allocation message.

    The child process runs under an address-space limit, set in the child only, so an allocation fails at once and
    touches no memory: a million heads' layout index exceeds the limit.
    """

    MESSAGES = {
        "--batch-size": "usage error: batch_size must not exceed the split's 6 scenes, got 1000000",
        "--num-heads": "usage error: Unable to allocate ",
    }

    @pytest.mark.parametrize("flag", list(MESSAGES))
    def test_exit_one_with_one_line(self, flag, data_dir, tmp_path):
        limit = 512 << 20
        out = tmp_path / "m.ckpt"
        args = ["train", "--data", str(data_dir / "train.jsonl"), "--out", str(out), "--steps", "1", flag, "1000000"]
        result = subprocess.run(
            [sys.executable, "-m", "capdet.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert result.returncode == 1
        (err,) = result.stderr.splitlines()
        assert err.startswith(self.MESSAGES[flag])
        assert not out.exists()


class TestRefusedTrainWritesNoLog:
    def test_batch_larger_than_the_split(self, data_dir, tmp_path, capsys):
        out, log = tmp_path / "m.ckpt", tmp_path / "log.jsonl"
        args = ["train", "--data", str(data_dir / "train.jsonl"), "--out", str(out), "--log", str(log), "--batch-size", "7"]
        assert cli.main(args) == 1
        assert capsys.readouterr().err.splitlines() == ["usage error: batch_size must not exceed the split's 6 scenes, got 7"]
        assert list(tmp_path.iterdir()) == []


def json_paths(node, path=()):
    """The path of every value inside a JSON document, keys and list positions alike."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def json_get(node, path):
    for key in path:
        node = node[key]
    return node


# values that stand in for a number, and a value of another type for anything
NUMBER_STAND_INS = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, "0.5"]
RETYPED = ["x", None, [], {}, True, 1.5, 7]


@st.composite
def json_mutation(draw, doc):
    """doc with one key dropped, one value retyped, or one number made NaN, inf, huge or a string."""
    doc = json.loads(json.dumps(doc))
    paths = list(json_paths(doc))
    keyed = [p for p in paths if isinstance(json_get(doc, p[:-1]), dict)]
    numbers = [p for p in paths if type(json_get(doc, p)) in (int, float)]
    kind = draw(st.sampled_from(["drop", "retype", "number"]))
    if kind == "drop" and keyed:
        path = draw(st.sampled_from(keyed))
        del json_get(doc, path[:-1])[path[-1]]
    elif kind == "retype" and paths:
        path = draw(st.sampled_from(paths))
        old = json_get(doc, path)
        json_get(doc, path[:-1])[path[-1]] = draw(st.sampled_from([v for v in RETYPED if type(v) is not type(old)]))
    elif numbers:
        path = draw(st.sampled_from(numbers))
        json_get(doc, path[:-1])[path[-1]] = draw(st.sampled_from(NUMBER_STAND_INS))
    return doc


@st.composite
def byte_mutation(draw, text):
    """text's UTF-8 bytes with one byte overwritten by a value in 0x80-0xff, which ASCII text cannot decode around."""
    blob = bytearray(text.encode())
    blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0x80, 0xFF))
    return bytes(blob)


def is_utf8(blob):
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@st.composite
def lines_mutation(draw, text):
    """The bytes of a line-delimited text truncated, given blank lines, with one line mutated or one byte overwritten."""
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(["truncate", "json", "blank lines", "byte"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    if kind == "byte":
        return draw(byte_mutation(text))
    if kind == "blank lines":
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["\n", "  \n", "\t\n"])))
        return "".join(lines).encode()
    k = draw(st.integers(0, len(lines) - 1))
    lines[k] = json.dumps(draw(json_mutation(json.loads(lines[k])))) + "\n"
    return "".join(lines).encode()


@st.composite
def dataset_mutation(draw, blob):
    """A dataset file's bytes truncated, given a blank line, with its header or a record mutated as json_mutation
    does, a payload's values overwritten (with NaN, inf or huge values), or one byte overwritten with 0x80-0xff;
    and whether the reader must refuse the result, as it must any cut, blank line or byte no line can decode."""
    data = DatasetFile.parse(blob)
    kind = draw(st.sampled_from(["truncate", "blank line", "json", "payload", "byte"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))], True
    if kind == "blank line":
        at = draw(st.sampled_from([0, *data.ends()]))
        return blob[:at] + b"\n" + blob[at:], True
    if kind == "byte":
        at = draw(st.integers(0, len(blob) - 1))
        in_payload = any(end - len(p) <= at < end for end, p in zip(data.ends()[1:], data.payloads))
        return blob[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + blob[at + 1 :], not in_payload
    k = draw(st.integers(0, len(data.records) - 1))
    if kind == "json":
        if draw(st.booleans()):
            data.header = draw(json_mutation(data.header))
        else:
            data.records[k] = draw(json_mutation(data.records[k]))
        return data.to_bytes(), False
    # one entry or a run of them, up to the whole payload, as checkpoint_mutation overwrites its payload
    values = np.frombuffer(data.payloads[k], "<f8").copy()
    start = draw(st.integers(0, len(values) - 1))
    stop = draw(st.one_of(st.just(start + 1), st.integers(start + 1, len(values))))
    values[start:stop] = draw(st.sampled_from(NUMBER_STAND_INS[:-1]))
    data.payloads[k] = values.tobytes()
    return data.to_bytes(), False


@st.composite
def checkpoint_mutation(draw, blob):
    magic_end = len(scorenet.CHECKPOINT_MAGIC)
    header_end = blob.index(b"\n", magic_end) + 1
    kind = draw(st.sampled_from(["truncate", "header", "payload", "blank lines"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "blank lines":
        at = draw(st.integers(0, len(blob)))
        return blob[:at] + b"\n" * draw(st.integers(1, 3)) + blob[at:]
    if kind == "header":
        header = draw(json_mutation(json.loads(blob[magic_end:header_end])))
        return blob[:magic_end] + json.dumps(header).encode() + b"\n" + blob[header_end:]
    # one entry or a run of them, up to the whole payload, so that huge weights can overflow a score
    payload = np.frombuffer(blob[header_end:], dtype="<f8").copy()
    start = draw(st.integers(0, len(payload) - 1))
    stop = draw(st.one_of(st.just(start + 1), st.integers(start + 1, len(payload))))
    payload[start:stop] = draw(st.sampled_from(NUMBER_STAND_INS[:-1]))
    return blob[:header_end] + payload.tobytes()


@pytest.fixture(scope="module")
def eval_inputs(data_dir, tmp_path_factory):
    """A 3-step checkpoint trained on the train split, the val split it evaluates, and a work directory."""
    work = tmp_path_factory.mktemp("fuzz")
    ckpt = work / "trained.ckpt"
    assert cli.main(["train", "--data", str(data_dir / "train.jsonl"), "--out", str(ckpt), "--steps", "3"]) == 0
    return (data_dir / "val.jsonl").read_bytes(), ckpt.read_bytes(), work


def run_quietly(args):
    """cli.main's exit code, stderr lines and caught warnings."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
    return code, err.getvalue().splitlines(), caught


def exited_cleanly(code, err, caught, out, data_error=False):
    """Whether cli.main succeeded; either way it warned nothing, and a failure wrote one line and no output file.

    With data_error, only exit 2 and a data error line are clean.
    """
    assert caught == []
    assert code in ((2,) if data_error else (0, 1, 2, 3))
    if code != 0:
        (line,) = err
        assert line.startswith(("data error: ",) if data_error else ("usage error: ", "data error: ", "numerical failure: "))
        assert not out.exists()
        return False
    assert err == []
    return True


@st.composite
def config_mutation(draw, text):
    """The bytes of a key = value config text truncated, given blank lines, with one entry mutated as json_mutation
    does, or with one byte overwritten."""
    kind = draw(st.sampled_from(["truncate", "entry", "blank lines", "byte"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    if kind == "byte":
        return draw(byte_mutation(text))
    lines = text.splitlines(keepends=True)
    if kind == "blank lines":
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["\n", "  \n", "\t\n"])))
        return "".join(lines).encode()
    values = {}
    for line in lines:
        key, value = (part.strip() for part in line.split("#")[0].split("="))
        values[key] = json.loads(value) if value[0].isdigit() else value
    return "".join(f"{key} = {value}\n" for key, value in draw(json_mutation(values)).items()).encode()


class TestEvalInputFuzz:
    """Mutated input files through cli.main: one clean exit each, never a success from non-finite numbers.

    The readers fuzzed: the dataset and checkpoint (capdet eval), the caption,
    vocabulary and registry files (capdet parse) and the config file
    (capdet train --config).
    """

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_eval_exits_cleanly(self, eval_inputs, data):
        dataset, blob, work = eval_inputs
        data_path, ckpt_path, out = work / "data.jsonl", work / "m.ckpt", work / "metrics.json"
        refused = False
        if data.draw(st.booleans(), label="mutate the checkpoint"):
            blob = data.draw(checkpoint_mutation(blob))
        else:
            dataset, refused = data.draw(dataset_mutation(dataset))
        data_path.write_bytes(dataset)
        ckpt_path.write_bytes(blob)
        out.unlink(missing_ok=True)
        code, err, caught = run_quietly(
            ["eval", "--data", str(data_path), "--checkpoint", str(ckpt_path), "--out", str(out)]
        )
        if not exited_cleanly(code, err, caught, out, data_error=refused):
            return
        # a success read finite scores on every scene, and wrote finite metrics
        params = scorenet.load_checkpoint(ckpt_path)
        for scene in synthbench.load_dataset(data_path):
            try:
                infer_scene(params, scene.proposals, TrainConfig())
            except NumericalError:
                pytest.fail(f"exit 0 although scene {scene.image_id!r} scores non-finite")
        metrics = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in the metrics"))
        assert all(math.isfinite(v) for v in (metrics["map"], metrics["corloc"]))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_parse_exits_cleanly(self, data_dir, tmp_path_factory, data):
        work = tmp_path_factory.getbasetemp()
        captions, out = work / "fuzz-captions.jsonl", work / "fuzz-labels.jsonl"
        scenes = synthbench.load_dataset(data_dir / "train.jsonl")
        text = "".join(json.dumps({"image_id": s.image_id, "captions": s.captions}) + "\n" for s in scenes)
        mutated = data.draw(lines_mutation(text))
        captions.write_bytes(mutated)
        out.unlink(missing_ok=True)
        code, err, caught = run_quietly(["parse", "--captions", str(captions), "--out", str(out)])
        if not exited_cleanly(code, err, caught, out, data_error=not is_utf8(mutated)):
            return
        # a success wrote one strict-JSON label record per caption record
        records = [line for line in captions.read_text().splitlines() if line.strip()]
        labels = [
            json.loads(line, parse_constant=lambda c: pytest.fail(f"{c} in the labels"))
            for line in out.read_text().splitlines()
        ]
        assert len(labels) == len(records)
        for record in labels:
            assert type(record["image_id"]) in (str, int)
            assert all(type(c) is int and 0 <= c < default_vocabulary().num_classes for c in record["objects"])

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_parse_vocabulary_and_registry_exit_cleanly(self, data_dir, tmp_path_factory, data):
        work = tmp_path_factory.getbasetemp()
        captions, out = work / "fuzz-captions.jsonl", work / "fuzz-labels.jsonl"
        scenes = synthbench.load_dataset(data_dir / "train.jsonl")
        captions.write_text("".join(json.dumps({"image_id": s.image_id, "captions": s.captions}) + "\n" for s in scenes))
        files = {flag: (work / f"fuzz{flag}.json", resources.files("capdet.data").joinpath(name).read_text())
                 for flag, name in (("--vocab", "vocab.json"), ("--registry", "registry.json"))}
        mutated = data.draw(st.sampled_from(sorted(files)), label="file mutated")
        args = ["parse", "--captions", str(captions), "--out", str(out)]
        for flag, (path, text) in files.items():
            # one line, so a line mutation mutates the whole document
            text = json.dumps(json.loads(text)) + "\n"
            path.write_bytes(data.draw(lines_mutation(text)) if flag == mutated else text.encode())
            args += [flag, str(path)]
        out.unlink(missing_ok=True)
        code, err, caught = run_quietly(args)
        if not exited_cleanly(code, err, caught, out, data_error=not is_utf8(files[mutated][0].read_bytes())):
            return
        # a success labelled only classes of the vocabulary it read
        num_classes = Vocabulary.from_file(files["--vocab"][0]).num_classes
        for line in out.read_text().splitlines():
            record = json.loads(line)
            assert all(type(c) is int and 0 <= c < num_classes for c in record["objects"])
            assert all(type(c) is int and 0 <= c < num_classes for c, _, _ in record["attributes"])

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_train_config_exits_cleanly(self, data_dir, tmp_path_factory, data):
        work = tmp_path_factory.getbasetemp()
        config, out = work / "fuzz.cfg", work / "fuzz.ckpt"
        text = "steps = 3\nbatch_size = 2\nlearning_rate = 0.02  # aggressive\nlambda1 = 0.5\ntau = 0.5\nloss_mode = em+sg\n"
        mutated = data.draw(config_mutation(text))
        config.write_bytes(mutated)
        out.unlink(missing_ok=True)
        code, err, caught = run_quietly(
            ["train", "--data", str(data_dir / "train.jsonl"), "--config", str(config), "--out", str(out)]
        )
        if not exited_cleanly(code, err, caught, out, data_error=not is_utf8(mutated)):
            return
        assert np.isfinite(scorenet.load_checkpoint(out).flat).all()


class TestDatasetFraming:
    """A small split cut, with a scene dropped or repeated, or with any one byte overwritten, through capdet eval.

    Each cut and each lost or repeated scene exits 2; an overwritten byte exits
    0 or 2, or 3 where it leaves a payload value finite but large enough to
    overflow a score. Every failure is one line, never a traceback.
    """

    def _eval(self, eval_inputs, dataset):
        _, blob, work = eval_inputs
        data_path, ckpt_path, out = work / "framing.jsonl", work / "framing.ckpt", work / "framing.json"
        data_path.write_bytes(dataset)
        ckpt_path.write_bytes(blob)
        out.unlink(missing_ok=True)
        code, err, caught = run_quietly(["eval", "--data", str(data_path), "--checkpoint", str(ckpt_path), "--out", str(out)])
        assert caught == []
        assert code == 0 or (len(err) == 1 and not out.exists())
        return code, err

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_cut_at_any_byte_exits_two(self, eval_inputs, data):
        dataset = eval_inputs[0]
        code, err = self._eval(eval_inputs, dataset[: data.draw(st.integers(0, len(dataset) - 1))])
        assert code == 2 and err[0].startswith("data error: ")

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_dropped_or_repeated_scene_exits_two(self, eval_inputs, data):
        dataset = DatasetFile.parse(eval_inputs[0])
        k = data.draw(st.integers(0, len(dataset.records) - 1))
        if data.draw(st.booleans(), label="repeat"):
            dataset.records.insert(k, dataset.records[k])
            dataset.payloads.insert(k, dataset.payloads[k])
        else:
            del dataset.records[k], dataset.payloads[k]
        code, err = self._eval(eval_inputs, dataset.to_bytes())
        assert code == 2 and err[0].startswith("data error: ")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_an_overwritten_byte_exits_cleanly(self, eval_inputs, data):
        dataset = eval_inputs[0]
        at = data.draw(st.integers(0, len(dataset) - 1))
        value = data.draw(st.integers(0, 255).filter(lambda b: b != dataset[at]))
        code, err = self._eval(eval_inputs, dataset[:at] + bytes([value]) + dataset[at + 1 :])
        parsed = DatasetFile.parse(dataset)
        in_payload = any(end - len(p) <= at < end for end, p in zip(parsed.ends()[1:], parsed.payloads))
        assert code in ((0, 2, 3) if in_payload else (0, 2))
        assert code != 2 or err[0].startswith("data error: ")
        assert code != 3 or err[0].startswith("numerical failure: ")


class TestGradcheckCommand:
    def test_pass_exit_zero(self, capsys):
        code = cli.main(["gradcheck", "--trials", "2", "--coords", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")
        assert "max relative error" in out

    def test_fail_exit_three(self, capsys):
        code = cli.main(["gradcheck", "--trials", "2", "--coords", "8", "--tolerance", "1e-18"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL")
        assert "numerical failure" in captured.err

    def test_non_finite_error_fails(self, capsys):
        original = scorenet.param_gradients

        def broken(*args):
            grad = original(*args)
            grad[0] = np.nan  # packed[0, 0], the first weight of object head 0
            return grad

        with mock.patch.object(scorenet, "param_gradients", broken):
            code = cli.main(["gradcheck", "--trials", "2", "--coords", "1000000"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL: 2 configs, ")
        assert "max relative error nan (worst: trial 0, object[0].weight[0])" in captured.out
        (err,) = captured.err.splitlines()
        assert err == "numerical failure: gradient check failed: nan >= 1.0e-04"

    @pytest.mark.parametrize(
        "flags, settings",
        [
            ([], {}),
            (["--coords", "8"], {"coords_per_trial": 8}),
            (["--trials", "2", "--step", "1e-4"], {"trials": 2, "step": 1e-4}),
        ],
        ids=["no flags", "coords", "trials and step"],
    )
    def test_passes_only_the_flags_given(self, flags, settings, capsys):
        # run_gradient_check's signature holds every default
        result = gradcheck.GradCheckResult(
            trials=1, coords_checked=8, max_rel_error=0.0, worst_trial=0, worst_coord="", elapsed_seconds=0.0
        )
        # the parser reads run_gradient_check's annotations, which a mock lacks, so it is built first
        parser = cli.build_parser()
        with (
            mock.patch.object(cli, "build_parser", return_value=parser),
            mock.patch.object(gradcheck, "run_gradient_check", return_value=result) as check,
        ):
            assert cli.main(["gradcheck", *flags]) == 0
        assert check.call_args == mock.call(**settings)
        assert capsys.readouterr().out.startswith("PASS: 1 configs, 8 coordinates, ")

    def test_overflowing_step_is_one_line(self):
        # a real process, so numpy warnings would reach its stderr
        args = ["gradcheck", "--trials", "2", "--coords", "8", "--step", "1e308"]
        result = subprocess.run([sys.executable, "-m", "capdet.cli", *args], capture_output=True, text=True)
        assert result.returncode == 3
        (out,) = result.stdout.splitlines()
        assert out.startswith("FAIL")
        (err,) = result.stderr.splitlines()
        assert err.startswith("numerical failure: ")


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    return {option for action in parser._actions for option in action.option_strings if option.startswith("--")}


class TestArgumentHandling:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli.main(["gradcheck", "--frobnicate"]) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--step", "0"),
            ("--step", "-1e-5"),
            ("--step", "nan"),
            ("--step", "inf"),
            ("--trials", "0"),
            ("--trials", "-3"),
            ("--coords", "0"),
            ("--tolerance", "nan"),
            ("--tolerance", "0"),
            ("--tolerance", "inf"),
        ],
    )
    def test_bad_gradcheck_setting_is_a_usage_error(self, flag, value, capsys):
        assert cli.main(["gradcheck", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (err,) = captured.err.splitlines()
        assert err.startswith("usage error: ")
        assert flag[2:] in err

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["dance"]) == 1

    @pytest.mark.parametrize("flag", ["--vocab", "--registry"])
    def test_eval_has_no_vocab_or_registry(self, flag, tmp_path, capsys):
        args = ["eval", "--data", "d", "--checkpoint", "c", "--out", str(tmp_path / "m.json"), flag, "x"]
        assert cli.main(args) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_every_config_field_is_a_flag(self):
        # a field reachable only through config files would be an untested option;
        # each TrainConfig field is a flag of exactly one of train and eval
        flags = {command: _long_options(parser) for command, parser in _subcommands().items()}
        fields = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(TrainConfig)}
        assert flags["train"] & fields == fields - flags["eval"]
        assert flags["eval"] & fields == {"--nms-threshold", "--score-floor"}
        assert flags["train"] - fields == {"--help", "--data", "--out", "--log", "--vocab", "--registry", "--config"}
        assert flags["eval"] - fields == {"--help", "--data", "--checkpoint", "--out"}

    @pytest.mark.parametrize(
        "command, owner",
        [("synth", SynthConfig), ("train", TrainConfig), ("eval", TrainConfig), ("gradcheck", gradcheck.run_gradient_check)],
    )
    def test_settings_flags_are_built_from_their_owner(self, command, owner):
        # each flag that sets a setting of the command's owner takes the owner's type and choices, and no default
        hints = typing.get_type_hints(owner)
        actions = [a for a in _subcommands()[command]._actions if a.dest in hints]
        assert actions
        for action in actions:
            hint = hints[action.dest]
            literal = typing.get_origin(hint) is typing.Literal
            assert action.default is None, action.dest
            assert (action.type, action.choices) == ((str, typing.get_args(hint)) if literal else (hint, None)), action.dest
        assert {a.dest for a in actions if a.choices} == ({"loss_mode"} if command == "train" else set())

    def test_config_flag_spellings_and_types(self):
        parser = cli.build_parser()
        args = parser.parse_args(
            [
                "train", "--data", "d", "--out", "o",
                "--learning-rate", "0.5", "--batch-size", "3", "--steps", "4", "--seed", "5",
                "--lambda1", "0.25", "--lambda2", "0", "--loss-mode", "em", "--num-heads", "2", "--tau", "0.6",
            ]
        )
        expected = {
            "config": None, "learning_rate": 0.5, "batch_size": 3, "steps": 4, "seed": 5, "lambda1": 0.25,
            "lambda2": 0.0, "loss_mode": "em", "num_heads": 2, "tau": 0.6,
        }
        assert {k: (getattr(args, k), type(getattr(args, k))) for k in expected} == {
            k: (v, type(v)) for k, v in expected.items()
        }
        eval_files = ["--data", "d", "--checkpoint", "c", "--out", "o"]
        args = parser.parse_args(["eval", *eval_files, "--nms-threshold", "0.3", "--score-floor", "0.1"])
        assert (args.nms_threshold, args.score_floor) == (0.3, 0.1)
        with pytest.raises(ValueError, match="invalid choice"):
            parser.parse_args(["train", "--data", "d", "--out", "o", "--loss-mode", "sg"])

    @pytest.mark.parametrize("command", ["synth", "parse", "train", "eval", "gradcheck"])
    def test_no_flag_matches_by_a_prefix(self, command, tmp_path, capsys):
        # walks the parser, so a flag added later is covered too; no input exists, so reading one would exit 2
        parser = _subcommands()[command]
        options = _long_options(parser)
        required = [a.option_strings[-1] for a in parser._actions if a.required]
        inputs = [arg for flag in required for arg in (flag, str(tmp_path / flag[2:]))]
        prefixes = sorted({option[:n] for option in options for n in range(3, len(option))} - options)
        assert prefixes
        for prefix in prefixes:
            assert cli.main([command, *inputs, prefix, "1"]) == 1, prefix
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"usage error: unrecognized arguments: {prefix} 1"]
            assert list(tmp_path.iterdir()) == []

    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "capdet.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "synth" in result.stdout
        assert "gradcheck" in result.stdout


class TestConfigFileParsing:
    def test_comments_and_blanks(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("# a comment\n\nsteps = 7\n  tau = 0.6 # inline\nloss_mode = em\n")
        values = cli.read_config_file(config, cli.TRAIN_SETTINGS)
        assert values == {"steps": 7, "tau": 0.6, "loss_mode": "em"}
        assert [type(v) for v in values.values()] == [int, float, str]

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.DataError, match="^cannot read .*nothing.cfg: No such file or directory$"):
            cli.read_config_file(tmp_path / "nothing.cfg", cli.TRAIN_SETTINGS)
