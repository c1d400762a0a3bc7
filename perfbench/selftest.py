"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, that every workload reports
every declared metric with its declared unit in both modes, that a traced
run leaves the package's attributes exactly as it found them (also when
the traced code raises), that absent targets are recorded rather than
fatal, that self time excludes child spans, that probe time is not
counted as round time, and that the benchmark fails without a result
where the package is missing.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"], list(spec)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS), names
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    seen = set(names)
    bounds = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME_RE.match(m["name"]) and m["name"] not in seen, m["name"]
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher"), m
        seen.add(m["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
        bounds[m["name"]] = m["bound"]
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= spec["run_seconds"] <= 60 and spec["paths"] == ["perfbench"]


def check_workloads() -> None:
    declared = run._declared_metrics()
    for name in run.WORKLOAD_NAMES:
        before = tracing.attribute_snapshot(layers.TARGETS)
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, report = run.run_benchmark(name, 1, 0.01, trace, scale=workloads.TINY)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, report["checks"])
            expected = {m["name"]: m["unit"] for m in declared[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, kind, set(got) ^ set(expected))
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values()), name
        after = tracing.attribute_snapshot(layers.TARGETS)
        assert after == before, f"{name}: traced run changed {[k for k in before if before[k] is not after[k]]}"
        assert not report["absent_targets"], report["absent_targets"]


def check_tracer() -> None:
    fake = types.ModuleType("perfbench_fake_layer")

    def inner(delay):
        time.sleep(delay)
        return delay

    def outer(delay):
        time.sleep(delay)
        return fake.inner(delay) + fake.helper()

    def failing():
        raise ValueError("boom")

    fake.inner, fake.outer, fake.failing, fake.helper = inner, outer, failing, lambda: 0.0
    sys.modules[fake.__name__] = fake
    try:
        targets = [
            tracing.Target(fake.__name__, "outer", "fake.outer"),
            tracing.Target(fake.__name__, "inner", "fake.inner"),
            tracing.Target(fake.__name__, "helper", "fake.helper", "count"),
            tracing.Target(fake.__name__, "failing", "fake.failing"),
            tracing.Target(fake.__name__, "deleted_by_a_refactor", "fake.gone"),
            tracing.Target("capdet.trainer", "NoSuchClass.step", "trainer.NoSuchClass.step"),
        ]
        originals = (fake.outer, fake.inner, fake.helper, fake.failing)
        with tracing.Tracer() as tracer:
            tracer.install(targets)
            assert fake.outer is not originals[0]
            fake.outer(0.02)
            try:
                fake.failing()
            except ValueError:
                pass
            else:
                raise AssertionError("the wrapper swallowed an exception")
        assert (fake.outer, fake.inner, fake.helper, fake.failing) == originals
        assert tracer.absent == ["fake.gone", "trainer.NoSuchClass.step"], tracer.absent
        stats = tracer.layer_stats()
        assert stats["fake.outer"]["calls"] == 1 and stats["fake.inner"]["calls"] == 1
        assert stats["fake.failing"]["calls"] == 1
        # outer's self time excludes inner's 20 ms
        assert 15 <= stats["fake.outer"]["self_ms"] < 45, stats
        assert 15 <= stats["fake.inner"]["self_ms"] < 45, stats
        assert tracer.tally[("fake.outer", "fake.helper.calls")] == 1
        assert len({span[0] for span in tracer.spans}) == len(tracer.spans) == 3
        assert tracer.spans[1][1] == tracer.spans[0][0]  # inner's parent is outer
    finally:
        del sys.modules[fake.__name__]

    # restoration also holds when the traced code raises out of the block
    before = tracing.attribute_snapshot(layers.TARGETS)
    try:
        with tracing.Tracer() as tracer:
            tracer.install(layers.TARGETS)
            raise RuntimeError("traced code failed")
    except RuntimeError:
        pass
    assert tracing.attribute_snapshot(layers.TARGETS) == before


def check_round_clock() -> None:
    """Probe time inside a round is not counted as the round's time."""
    clock = workloads.RoundClock(probe=lambda: time.sleep(0.05))
    time.sleep(0.02)
    clock.mark()
    assert 0.015 <= clock.elapsed() < 0.045, clock.elapsed()


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: a non-zero exit and no result line."""
    run.OUT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gradcheck", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    checks = (check_spec, check_tracer, check_round_clock, check_workloads, check_bare_directory)
    for check in checks:
        check()
        print(f"ok {check.__name__}")
    print(f"selftest: {len(checks)} groups passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
