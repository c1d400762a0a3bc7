"""Byte identity across OpenBLAS kernels: datasets and the metrics file agree, the parameters to 1e-8.

Checkpoint bytes may differ in their last bits from one CPU kernel of
OpenBLAS to another, since the kernels round matrix products differently
(README, Determinism). A seed-0 split is generated, and a small seed-0
problem trained and evaluated, through the CLI twice, each time in a new
process: under the kernel OpenBLAS picks for this CPU, and under
OPENBLAS_CORETYPE=Prescott, one without FMA. Under Prescott too, a
batch's gradient has the bytes of its lone scenes' gradients added in
order.

Run as a script, this file prints the seeds of BATCH_SEEDS whose batch
gradient bytes differ from the sum of its lone scenes' gradients.
"""

import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from openblas_build import openblas_config

from capdet import scorenet

OTHER_KERNEL = "Prescott"
BATCH_SEEDS = range(100)


def run(args, env):
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def kernel_environments():
    """Environments that run the native kernel and OTHER_KERNEL; skips where the two cannot differ."""
    config = openblas_config()
    if config is None or "DYNAMIC_ARCH" not in config.split():
        pytest.skip(f"only a DYNAMIC_ARCH build of OpenBLAS picks its kernel at run time; this build: {config}")
    native = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    forced = dict(native, OPENBLAS_CORETYPE=OTHER_KERNEL)
    helper = str(Path(__file__).with_name("openblas_build.py"))
    native_build, forced_build = run([helper], native), run([helper], forced)
    if native_build == forced_build:
        pytest.skip(f"the native kernel is already the one {OTHER_KERNEL} selects: {native_build.strip()}")
    return native, forced


def batch_gradient_mismatches():
    """The seeds of BATCH_SEEDS whose random batch's gradient bytes differ from its lone scenes' gradients summed."""
    from test_trainer import random_scenes, stacked, step_with_mask

    from capdet.trainer import SceneBatch

    mismatches = []
    for seed in BATCH_SEEDS:
        rng = np.random.default_rng([20240601, seed])
        sizes = rng.integers(1, 10, size=int(rng.integers(2, 5))).tolist()
        params, scenes, sups, config = random_scenes(rng, len(sizes), num_heads=int(rng.integers(1, 4)), sizes=sizes)
        _, _, grad = step_with_mask(params, SceneBatch.pack(scenes), stacked(sups), config)
        lone = [step_with_mask(params, SceneBatch.pack([scene]), sup, config)[2] for scene, sup in zip(scenes, sups)]
        total = reduce(np.add, lone)
        if grad.tobytes() != total.tobytes():
            mismatches.append(seed)
    return mismatches


def test_batch_gradient_is_its_lone_scenes_on_other_kernel():
    _, forced = kernel_environments()
    assert run([__file__], forced) == "[]\n"


def test_dataset_bytes_agree_across_kernels(tmp_path):
    native, forced = kernel_environments()
    split = {}
    for name, env in (("native", native), ("forced", forced)):
        sizes = ["--train", "1", "--val", "1", "--test", "500"]
        run(["-m", "capdet.cli", "synth", "--out", str(tmp_path / name), "--seed", "0", *sizes], env)
        split[name] = (tmp_path / name / "test.jsonl").read_bytes()
    assert split["native"] == split["forced"]


def test_train_and_eval_agree_across_kernels(tmp_path):
    native, forced = kernel_environments()
    data = tmp_path / "data"
    run(["-m", "capdet.cli", "synth", "--out", str(data), "--seed", "0", "--train", "200", "--val", "1", "--test", "100"], native)
    params, metrics = [], []
    for name, env in (("native", native), ("forced", forced)):
        checkpoint, out = tmp_path / f"{name}.ckpt", tmp_path / f"{name}.json"
        run(["-m", "capdet.cli", "train", "--data", str(data / "train.jsonl"), "--out", str(checkpoint), "--steps", "300"], env)
        run(["-m", "capdet.cli", "eval", "--data", str(data / "test.jsonl"), "--checkpoint", str(checkpoint), "--out", str(out)], env)
        params.append(scorenet.load_checkpoint(checkpoint).flat)
        metrics.append(out.read_bytes())
    assert metrics[0] == metrics[1]
    assert np.abs(params[0] - params[1]).max() <= 1e-8


if __name__ == "__main__":
    print(batch_gradient_mismatches())
