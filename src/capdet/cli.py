"""Command-line interface.

Subcommands: synth (generate benchmark splits), parse (captions to label
records), train, eval, and gradcheck. Exit codes: 0 success, 1 usage
error (a setting too large to allocate is one), 2 data error, 3 numerical
failure; README's File formats states each file's rules. main maps each
error to its code; each reader names its own bad input (fields.naming).

A command has a flag for each config field it reads and for no other:
synth the SynthConfig fields, eval the two that inference reads, train
the other TrainConfig fields, which an optional key-value text file
(`--config`) can also give and its flags override. Each file value is
parsed by its key's flag, so it takes the flag's type and choices.
Unknown flags are hard errors, and a flag matches only by its full name.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

from . import gradcheck, scorenet, synthbench, trainer
from .fields import DataError, check_fields, naming
from .synthbench import SynthConfig
from .textgraph import (
    CAPTION_FIELDS,
    AttributeRegistry,
    ParseStats,
    Vocabulary,
    default_registry,
    default_vocabulary,
    extract_labels,
)
from .trainer import NumericalError, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

EVAL_SETTINGS = ("nms_threshold", "score_floor")  # the TrainConfig fields inference reads
TRAIN_SETTINGS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.name not in EVAL_SETTINGS)
SYNTH_SETTINGS = tuple(f.name for f in dataclasses.fields(SynthConfig))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)  # a flag matches by its full name only

    def error(self, message: str):  # argparse would exit(2); our contract says 1
        raise UsageError(message)


def read_config_file(path: str | Path, names: Sequence[str]) -> dict[str, object]:
    """The values of a config file's entries, each key one of names and its value parsed by the key's flag.

    Entries are checked in file order, and each failure names the file and line.
    """
    flags = _Parser(add_help=False)
    _add_config_flags(flags, TrainConfig, names)
    values: dict[str, object] = {}
    for lineno, line in synthbench.read_lines(path):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, equals, value = (part.strip() for part in stripped.partition("="))
        where = f"{path}: line {lineno}"
        if not (key and equals):
            raise DataError(f"{where}: expected 'key = value', got {line.strip()!r}")
        if key in values:
            raise DataError(f"{where}: {key} is set twice")
        if key not in names:
            raise UsageError(f"{where}: unknown config key {key!r}")
        try:
            values[key] = getattr(flags.parse_args([f"--{key.replace('_', '-')}={value}"]), key)
        except UsageError as e:
            raise UsageError(f"{where}: {e}") from None
    return values


def build_train_config(args: argparse.Namespace, names: Sequence[str]) -> TrainConfig:
    """A TrainConfig of names' values from the --config file, if the command has one, and its flags, which win.

    Either spelling of the exact-match baseline given without the other,
    loss_mode em or lambda2 0, sets the other too.
    """
    values = read_config_file(args.config, names) if getattr(args, "config", None) else {}
    values.update((key, getattr(args, key)) for key in names if getattr(args, key) is not None)
    if values.get("loss_mode") == "em" and "lambda2" not in values:
        values["lambda2"] = 0.0
    if values.get("lambda2") == 0 and "loss_mode" not in values:
        values["loss_mode"] = "em"
    return TrainConfig(**values)  # its ValueError is a usage error


def _add_config_flags(p: argparse.ArgumentParser, config_class: type, names: Sequence[str]) -> None:
    """One flag for each field of config_class in names, of the field's type."""
    hints = get_type_hints(config_class)
    for key in names:
        choices = trainer.LOSS_MODES if key == "loss_mode" else None
        p.add_argument("--" + key.replace("_", "-"), type=hints[key], choices=choices)


def _load_vocab_registry(args: argparse.Namespace) -> tuple[Vocabulary | None, AttributeRegistry]:
    """The --vocab file's vocabulary (None without one), and the --registry file's registry or the default."""
    vocab = Vocabulary.from_file(args.vocab) if getattr(args, "vocab", None) else None
    return vocab, AttributeRegistry.from_file(args.registry) if args.registry else default_registry()


def cmd_synth(args: argparse.Namespace) -> int:
    sizes = {"train": args.train, "val": args.val, "test": args.test}
    for split, size in sizes.items():
        if size < 1:
            raise UsageError(f"--{split} must be positive, got {size}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    _, registry = _load_vocab_registry(args)
    config = SynthConfig(**{key: getattr(args, key) for key in SYNTH_SETTINGS})
    with naming(str(args.registry), (DataError,)):  # only a --registry file can lack a pool value
        universe = synthbench.make_universe(config, registry, seed=args.seed)
    out_dir = Path(args.out)
    if not out_dir.exists():
        out_dir.mkdir(parents=True)
    for split_index, (split, size) in enumerate(sizes.items()):
        path = out_dir / f"{split}.jsonl"
        # each split draws from a disjoint stream keyed by (seed, split), and is written one scene at a time
        synthbench.write_dataset(path, synthbench.scene_stream(universe, size, [args.seed, split_index], split), universe, size)
        print(f"wrote {size} scenes to {path}")
    return EXIT_OK


def cmd_parse(args: argparse.Namespace) -> int:
    vocab, registry = _load_vocab_registry(args)
    vocab = vocab or default_vocabulary()
    stats = ParseStats()
    out_records = []
    for lineno, record in synthbench.read_jsonl(args.captions):
        with naming(f"{args.captions}: line {lineno}"):
            record = check_fields(record, CAPTION_FIELDS, "caption record")
            labels = extract_labels(record["captions"], vocab, registry, stats)
        out_records.append(labels.to_record(record["image_id"]))
    synthbench.write_jsonl(args.out, out_records)
    print(
        f"parsed {len(out_records)} caption sets -> {args.out} "
        f"({stats.unknown_modifiers} unknown adjectives dropped)"
    )
    return EXIT_OK


def _load_scenes(path: str) -> tuple[dict, list[synthbench.SyntheticScene]]:
    """The dataset's header and scenes, read once."""
    header, scenes = synthbench.read_dataset(path)
    if not scenes:
        raise DataError(f"dataset {path} is empty")
    return header, scenes


def _check_header(header: dict, data: str, source: str, model: Mapping[str, object]) -> None:
    """A DataError unless the dataset header at data holds each of model's values, which source holds too."""
    for key, value in model.items():
        if header.get(key) != value:
            raise DataError(f"dataset {data} and {source} disagree on {key}")


def cmd_train(args: argparse.Namespace) -> int:
    config = build_train_config(args, TRAIN_SETTINGS)
    header, scenes = _load_scenes(args.data)
    vocab, registry = _load_vocab_registry(args)
    with naming(f"dataset {args.data}"):
        vocab = vocab or Vocabulary(header["class_names"])
    # the checkpoint takes the vocabulary's class names, and eval refuses any that differ from the dataset's
    _check_header(header, args.data, f"vocabulary {args.vocab or 'of its header'}", {"class_names": list(vocab.class_names)})
    # the log file is made with the first record, so a run that train refuses before its first step leaves none
    with contextlib.ExitStack() as files:
        log_file = functools.cache(lambda: files.enter_context(open(args.log, "w", encoding="utf-8")))
        sink = (lambda record: log_file().write(json.dumps(record, sort_keys=True) + "\n")) if args.log else None
        params = trainer.train(scenes, vocab, registry, config, log_sink=sink)
    scorenet.save_checkpoint(params, args.out)
    print(f"trained {config.steps} steps ({config.loss_mode}) -> {args.out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = build_train_config(args, EVAL_SETTINGS)
    header, scenes = _load_scenes(args.data)
    params = scorenet.load_checkpoint(args.checkpoint)
    model = {"feature_dim": params.feature_dim, "class_names": list(params.class_names)}
    _check_header(header, args.data, f"checkpoint {args.checkpoint}", model)
    metrics = trainer.evaluate(params, scenes, config)
    report = trainer.metrics_report(metrics, config)
    trainer.write_metrics(args.out, report)
    print(f"map={metrics['map']:.4f} corloc={metrics['corloc']:.4f} -> {args.out}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise UsageError(f"--tolerance must be finite and positive, got {args.tolerance}")
    result = gradcheck.run_gradient_check(
        trials=args.trials, seed=args.seed, coords_per_trial=args.coords, step=args.step
    )
    status = "PASS" if result.max_rel_error < args.tolerance else "FAIL"
    print(
        f"{status}: {result.trials} configs, {result.coords_checked} coordinates, "
        f"max relative error {result.max_rel_error:.3e} "
        f"(worst: trial {result.worst_trial}, {result.worst_coord}) "
        f"in {result.elapsed_seconds:.1f}s"
    )
    if status == "FAIL":
        raise NumericalError(
            f"gradient check failed: {result.max_rel_error:.3e} >= {args.tolerance:.1e}"
        )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="capdet", description="caption-supervised detector toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate benchmark splits")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", type=int, default=2000)
    p.add_argument("--val", type=int, default=500)
    p.add_argument("--test", type=int, default=500)
    _add_config_flags(p, SynthConfig, SYNTH_SETTINGS)
    p.add_argument("--registry")
    p.set_defaults(func=cmd_synth, **dataclasses.asdict(SynthConfig()))

    p = sub.add_parser("parse", help="extract label records from captions")
    p.add_argument("--captions", required=True, help="line-delimited {image_id, captions} records")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab")
    p.add_argument("--registry")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("train", help="train a detector on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="per-step loss log (line-delimited records)")
    p.add_argument("--vocab")
    p.add_argument("--registry")
    p.add_argument("--config", help="key-value config file; flags override it")
    _add_config_flags(p, TrainConfig, TRAIN_SETTINGS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="metrics report path")
    _add_config_flags(p, TrainConfig, EVAL_SETTINGS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument("--coords", type=int, default=80, help="coordinates sampled per trial")
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, MemoryError) as e:
        # bad parameter combinations surface here (DataError was caught above), and settings too large to allocate
        print(f"usage error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
