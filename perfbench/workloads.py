"""The benchmark's workloads: set-up, one timed round, and checks on its outputs.

Each workload is a closed loop in one process: the next call starts when
the previous one returns. Inputs are generated here from the workload
seed; the package only receives them, through its public entry points.

- ``train_gap``: the acceptance protocol for the confusable-class gap at
  one seed. Set-up generates the train and test splits in memory; a round
  trains ``em+sg`` and then ``em`` with the default ``TrainConfig`` and
  evaluates both. ``em`` skips the coupled terms, so it is the bypass for
  any optimisation of the coupled path.
- ``data_eval``: the file and evaluation path of ``capdet synth`` followed
  by ``capdet eval``. A round generates and writes a split, loads and
  labels it, loads the checkpoint trained in set-up and evaluates it. No
  backward pass, refinement or loss runs here.
- ``gradcheck``: ``run_gradient_check`` with the CLI's 100 trials of 80
  coordinates, as ten calls of ten trials each, so that the runner can
  probe the host's speed between calls. Many small forward-plus-loss
  evaluations on tiny random models: per-call overhead dominates.

A round calls the runner's ``probe`` at its segment boundaries, about once
a second (see ``reference.py``); the probe's own time is not counted.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from capdet import gradcheck, scorenet, synthbench, textgraph, trainer
from capdet.synthbench import SynthConfig

GRADCHECK_TOLERANCE = 1e-4

# the acceptance protocol's two objectives, coupled first
MODES = (("em+sg", 0.01), ("em", 0.0))

# a probe every this many training steps: about 0.6 s at today's speed
PROBE_EVERY_STEPS = 100

# quality of train_gap at seed 0 and full scale, from the acceptance run
# the roadmap records: confusable AP em+sg vs em, and em+sg mAP
REFERENCE_SEED0 = {"confusable_ap_emsg": 0.537, "confusable_ap_em": 0.288, "map_emsg": 0.568}
REFERENCE_TOLERANCE = 0.01


@dataclass(frozen=True)
class Scale:
    train_scenes: int = 2000
    test_scenes: int = 500
    train_steps: int = 2000  # the TrainConfig default
    split_scenes: int = 500  # the split data_eval writes, loads and evaluates
    ckpt_scenes: int = 200  # data_eval's set-up checkpoint
    ckpt_steps: int = 200
    gc_calls: int = 10  # gc_calls x gc_trials = the CLI's 100 trials
    gc_trials: int = 10
    gc_coords: int = 80
    gc_warmup_trials: int = 10


FULL = Scale()
TINY = Scale(
    train_scenes=12, test_scenes=6, train_steps=5, split_scenes=6,
    ckpt_scenes=6, ckpt_steps=3, gc_calls=2, gc_trials=1, gc_coords=6, gc_warmup_trials=1,
)

Probe = Callable[[], None]


class RoundClock:
    """Times a round; ``mark()`` runs the runner's probe, whose time is excluded."""

    def __init__(self, probe: Probe):
        self._probe = probe
        self._excluded = 0.0
        self._start = time.perf_counter()

    def mark(self) -> None:
        t0 = time.perf_counter()
        self._probe()
        self._excluded += time.perf_counter() - t0

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._excluded


@dataclass
class RoundResult:
    seconds: float = 0.0
    # stage -> (items done, seconds); items are scene-steps, scenes or coordinates
    stages: dict[str, tuple[float, float]] = field(default_factory=dict)
    # output file or record -> sha256; equal inputs must give equal hashes
    hashes: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    # training mode -> (first log_sink interval, later intervals), in ms
    steps_ms: dict[str, tuple[float, list[float]]] = field(default_factory=dict)
    # what the timed part produced, for inspect()
    outputs: dict = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _metrics_in_range(metrics: dict) -> bool:
    values = [metrics["map"], metrics["corloc"], *metrics["per_class_ap"].values()]
    return all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


def _checkpoint_roundtrip(path: Path) -> bool:
    """A loaded checkpoint, saved again, reproduces the file byte for byte."""
    again = path.with_suffix(".resaved")
    scorenet.save_checkpoint(scorenet.load_checkpoint(path), again)
    same = again.read_bytes() == path.read_bytes()
    again.unlink()
    return same


def _scenes_equal(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (
            x.image_id != y.image_id
            or x.captions != y.captions
            or x.gt != y.gt
            or not np.array_equal(x.proposals.boxes, y.proposals.boxes)
            or not np.array_equal(x.proposals.features, y.proposals.features)
        ):
            return False
    return True


class Workload:
    name = ""
    # scene-steps and optimizer steps one round trains, for per-step ratios
    scene_steps = 0
    optimizer_steps = 0

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, probe: Probe) -> RoundResult:
        """The timed part only; hashes, checks and quality are left to inspect()."""
        raise NotImplementedError

    def inspect(self, out: RoundResult) -> None:
        """Hash and check a round's outputs, outside the timed part."""
        raise NotImplementedError


class TrainGap(Workload):
    name = "train_gap"

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        super().__init__(seed, scale, workdir)
        batch = trainer.TrainConfig().batch_size
        self.optimizer_steps = len(MODES) * scale.train_steps
        self.scene_steps = self.optimizer_steps * batch
        self.train_scenes: list = []
        self.test_scenes: list = []

    def setup(self) -> None:
        # drop the previous set-up first, so repeats do not stack in memory
        self.train_scenes, self.test_scenes = [], []
        self.registry = textgraph.default_registry()
        config = SynthConfig()
        universe = synthbench.make_universe(config, self.registry, seed=self.seed)
        self.train_scenes = synthbench.gen_dataset(universe, self.scale.train_scenes, [self.seed, 0])
        self.test_scenes = synthbench.gen_dataset(universe, self.scale.test_scenes, [self.seed, 2])
        self.vocab = synthbench.benchmark_vocabulary(universe.class_names)
        self.confusable = tuple(name for pair in config.confusable_pairs for name in pair)

    def run_round(self, probe: Probe) -> RoundResult:
        out = RoundResult()
        clock = RoundClock(probe)
        eval_seconds = 0.0

        def log_sink(record: dict) -> None:
            stamps.append(clock.elapsed())
            if record["step"] % PROBE_EVERY_STEPS == 0:
                clock.mark()

        for mode, lambda2 in MODES:
            tag = mode.replace("+", "")  # as in metric and file names
            config = trainer.TrainConfig(
                seed=self.seed, loss_mode=mode, lambda2=lambda2, steps=self.scale.train_steps
            )
            stamps: list[float] = []
            t0 = clock.elapsed()
            params = trainer.train(self.train_scenes, self.vocab, self.registry, config, log_sink=log_sink)
            t1 = clock.elapsed()
            clock.mark()
            scorenet.save_checkpoint(params, self.workdir / f"train_gap-{tag}.ckpt")
            metrics = trainer.evaluate(params, self.test_scenes, config)
            trainer.write_metrics(
                self.workdir / f"train_gap-{tag}.json", trainer.metrics_report(metrics, config)
            )
            t2 = clock.elapsed()
            clock.mark()
            out.outputs[tag] = metrics
            eval_seconds += t2 - t1
            out.stages[f"train_{tag}"] = (config.steps * config.batch_size, t1 - t0)
            out.steps_ms[tag] = ((stamps[0] - t0) * 1e3, list(np.diff(stamps) * 1e3))
        out.seconds = clock.elapsed()
        out.stages["eval"] = (len(MODES) * len(self.test_scenes), eval_seconds)
        return out

    def inspect(self, out: RoundResult) -> None:
        for tag, metrics in out.outputs.items():
            ckpt = self.workdir / f"train_gap-{tag}.ckpt"
            report = self.workdir / f"train_gap-{tag}.json"
            out.hashes[f"{tag}.ckpt"] = sha256_file(ckpt)
            out.hashes[f"{tag}.metrics"] = sha256_file(report)
            out.checks[f"{tag}.checkpoint_roundtrip"] = _checkpoint_roundtrip(ckpt)
            out.checks[f"{tag}.metrics_in_range"] = _metrics_in_range(metrics)
            out.quality[f"map_{tag}"] = metrics["map"]
            out.quality[f"confusable_ap_{tag}"] = float(
                np.mean([metrics["per_class_ap"][n] for n in self.confusable])
            )
        out.quality["confusable_ap_gap"] = out.quality["confusable_ap_emsg"] - out.quality["confusable_ap_em"]
        if self.seed == 0 and self.scale == FULL:
            out.checks["seed0_reference_quality"] = all(
                abs(out.quality[k] - v) <= REFERENCE_TOLERANCE for k, v in REFERENCE_SEED0.items()
            )


class DataEval(Workload):
    name = "data_eval"

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.checkpoint = workdir / "data_eval.ckpt"
        self.dataset = workdir / "data_eval-test.jsonl"
        self.report = workdir / "data_eval-metrics.json"

    def setup(self) -> None:
        self.registry = textgraph.default_registry()
        self.universe = synthbench.make_universe(SynthConfig(), self.registry, seed=self.seed)
        self.vocab = synthbench.benchmark_vocabulary(self.universe.class_names)
        scenes = synthbench.gen_dataset(self.universe, self.scale.ckpt_scenes, [self.seed, 0])
        config = trainer.TrainConfig(seed=self.seed, steps=self.scale.ckpt_steps)
        params = trainer.train(scenes, self.vocab, self.registry, config)
        scorenet.save_checkpoint(params, self.checkpoint)

    def run_round(self, probe: Probe) -> RoundResult:
        out = RoundResult()
        n = self.scale.split_scenes
        # capdet eval without flags: the default config at the run's seed
        config = trainer.TrainConfig(seed=self.seed)
        clock = RoundClock(probe)
        # the test split's stream, as capdet synth keys it
        scenes = synthbench.gen_dataset(self.universe, n, [self.seed, 2], id_prefix="test")
        clock.mark()
        synthbench.write_dataset(self.dataset, scenes, self.universe)
        t1 = clock.elapsed()
        clock.mark()
        loaded = synthbench.load_dataset(self.dataset)
        clock.mark()
        labels = trainer.label_scenes(loaded, self.vocab, self.registry)
        t2 = clock.elapsed()
        clock.mark()
        params = scorenet.load_checkpoint(self.checkpoint)
        metrics = trainer.evaluate(params, loaded, config)
        trainer.write_metrics(self.report, trainer.metrics_report(metrics, config))
        out.seconds = clock.elapsed()
        out.stages = {"synth": (n, t1), "ingest": (n, t2 - t1), "eval": (n, out.seconds - t2)}
        out.outputs = {"scenes": scenes, "loaded": loaded, "labels": labels, "metrics": metrics}
        return out

    def inspect(self, out: RoundResult) -> None:
        scenes, loaded, labels, metrics = (
            out.outputs.pop(k) for k in ("scenes", "loaded", "labels", "metrics")
        )
        out.hashes = {
            "dataset": sha256_file(self.dataset),
            "ckpt": sha256_file(self.checkpoint),
            "metrics": sha256_file(self.report),
        }
        out.checks = {
            "dataset_roundtrip": _scenes_equal(scenes, loaded),
            "labels_per_scene": len(labels) == len(loaded) and all(l.objects for l in labels),
            "metrics_in_range": _metrics_in_range(metrics),
        }
        out.quality = {"map_emsg": metrics["map"]}


class GradCheck(Workload):
    name = "gradcheck"

    def _seed(self, call: int) -> int:
        # distinct problems per call, and per workload seed
        return self.seed * self.scale.gc_calls + call

    def setup(self) -> None:
        # nothing to build: the check draws its own problems from the seed;
        # a short warm-up lets lazy imports and caches settle before timing
        gradcheck.run_gradient_check(
            trials=self.scale.gc_warmup_trials, seed=self._seed(0), coords_per_trial=self.scale.gc_coords
        )

    def run_round(self, probe: Probe) -> RoundResult:
        out = RoundResult()
        clock = RoundClock(probe)
        results = []
        for call in range(self.scale.gc_calls):
            if call:
                clock.mark()
            results.append(
                gradcheck.run_gradient_check(
                    trials=self.scale.gc_trials, seed=self._seed(call), coords_per_trial=self.scale.gc_coords
                )
            )
        out.seconds = clock.elapsed()
        out.stages = {"gradcheck": (sum(r.coords_checked for r in results), out.seconds)}
        out.outputs = {"results": results}
        return out

    def inspect(self, out: RoundResult) -> None:
        results = out.outputs.pop("results")
        records = [
            {
                "trials": r.trials,
                "coords_checked": r.coords_checked,
                "max_rel_error": r.max_rel_error,
                "worst_trial": r.worst_trial,
                "worst_coord": r.worst_coord,
            }
            for r in results
        ]
        worst = max(r.max_rel_error for r in results)
        out.hashes = {"results": hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()}
        out.checks = {
            "max_rel_error_below_tolerance": bool(worst < GRADCHECK_TOLERANCE),
            "coords_checked": all(r.coords_checked > 0 for r in results),
        }
        out.quality = {"max_rel_error": worst}


WORKLOADS = {w.name: w for w in (TrainGap, DataEval, GradCheck)}
