"""capdet benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload train_gap --seed 0 --seconds 25 --trace 0

The package is imported from ``src/`` of the same checkout; nothing is
installed. ``--trace 0`` sets the workload up several times, then repeats
its timed round while the next round still fits in ``--seconds`` (at
least one round), and reports the end-to-end metrics:

- ``setup_s``: median wall time of the set-ups;
- ``run_rel``: median over rounds of the round's wall time divided by the
  mean time of a fixed reference computation probed about once a second
  during the round (see ``reference.py``); the raw median round time,
  ``run_s``, is printed and reported too, but the host's speed drift
  makes it too unsteady to gate;
- ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` sets up once and runs one untraced and one traced round; the
traced round wraps the package's layers (see ``layers.py``) and reports
the per-layer metrics, with tracing overhead as traced minus untraced
round time.

Every round's outputs are hashed and checked: equal seeds must give equal
hashes within a run and across runs of the same code in this checkout.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (output checks made and failed) and ``metrics``,
whose names and units are the ones ``BENCHMARK.json`` declares. Reports,
spans and the hash record go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train_gap", "data_eval", "gradcheck")


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "capdet" / "__init__.py").is_file():
        raise BenchmarkError(f"no capdet package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def _declared_metrics() -> dict[str, list[dict]]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"], "workloads": spec["workloads"]}
    except (OSError, ValueError, KeyError) as e:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {e}") from None


def _code_digest() -> str:
    """Identity of the code under test and of the benchmark, for the hash record."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "capdet").rglob("*.py")) + sorted((ROOT / "src" / "capdet").rglob("*.json"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _check_hash_record(key: str, hashes: dict[str, str]) -> bool:
    """Compare with the hashes an earlier run of the same key recorded; record new ones."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "hashes.json"
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    if key in record:
        return record[key] == hashes
    record[key] = hashes
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return True


def _timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def _measure_end_to_end(workload, seconds: float, report: dict):
    """Set up several times, then repeat rounds while the next one still fits.

    The reference probe runs before and after every round and about once a
    second inside it; a round's ``run_rel`` is its wall time over the mean
    of those probe times.
    """
    import reference

    setup_times = [_timed_setup(workload) for _ in range(SETUP_REPEATS)]
    rounds, relative, probes = [], [], [reference.probe_seconds()]
    start = time.perf_counter()
    while True:
        first_probe = len(probes) - 1
        rounds.append(workload.run_round(probe=lambda: probes.append(reference.probe_seconds())))
        probes.append(reference.probe_seconds())
        relative.append(rounds[-1].seconds / statistics.mean(probes[first_probe:]))
        workload.inspect(rounds[-1])
        typical = statistics.median(r.seconds for r in rounds)
        if time.perf_counter() - start + typical > seconds:
            break
    first = rounds[0]
    checks: dict[str, bool] = {}
    for i, r in enumerate(rounds):
        checks.update({f"round{i}.{k}": v for k, v in r.checks.items()})
        checks[f"round{i}.hashes_match_round0"] = r.hashes == first.hashes
    values = {
        "setup_s": statistics.median(setup_times),
        "run_rel": statistics.median(relative),
        "run_s": statistics.median(r.seconds for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report["setup_s"] = setup_times
    report["round_s"] = [r.seconds for r in rounds]
    report["round_rel"] = relative
    report["probe_s"] = probes
    return first, values, checks


def _measure_layers(workload, report: dict):
    """One untraced round, then the same round traced; outputs must not differ."""
    import layers
    import tracing

    report["setup_s"] = [_timed_setup(workload)]
    first = workload.run_round(probe=lambda: None)
    workload.inspect(first)
    before = tracing.attribute_snapshot(layers.TARGETS)
    with tracing.Tracer() as tracer:
        tracer.install(layers.TARGETS, layers.MEASURES)
        traced = workload.run_round(probe=lambda: None)
    checks = {"attributes_restored": tracing.attribute_snapshot(layers.TARGETS) == before}
    workload.inspect(traced)
    checks.update({f"untraced.{k}": v for k, v in first.checks.items()})
    checks.update({f"traced.{k}": v for k, v in traced.checks.items()})
    checks["traced_outputs_match_untraced"] = traced.hashes == first.hashes
    tracer.write(OUT / f"trace-{workload.name}-seed{workload.seed}.jsonl")
    report["round_s"] = [first.seconds, traced.seconds]
    report["trace_run_id"] = tracer.run_id
    report["absent_targets"] = tracer.absent
    return first, layers.layer_metrics(tracer, workload, first, traced.seconds), checks


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, scale=None) -> tuple[dict, dict]:
    """(result object for the last output line, full report)."""
    import workloads

    scale = scale or workloads.FULL
    declared = _declared_metrics()
    kind = "per_layer" if trace else "end_to_end"
    report: dict = {
        "workload": name,
        "why": next((w["why"] for w in declared["workloads"] if w["name"] == name), ""),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale.__dict__,
        "environment": environment(),
        "loadavg_start": os.getloadavg(),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[name](seed, scale, workdir)
        if trace:
            first, values, checks = _measure_layers(workload, report)
        else:
            first, values, checks = _measure_end_to_end(workload, seconds, report)
        key = f"{name}|seed={seed}|scale={'full' if scale == workloads.FULL else 'other'}|code={_code_digest()}"
        checks["hashes_match_earlier_runs"] = _check_hash_record(key, first.hashes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared[kind] if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"{name} produced no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[kind]}
    failed = sum(not ok for ok in checks.values())
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}
    report.update(
        {
            "loadavg_end": os.getloadavg(),
            "stages": {k: {"items": i, "seconds": s} for k, (i, s) in first.stages.items()},
            "quality": first.quality,
            "hashes": first.hashes,
            "checks": checks,
            "all_values": values,
            "result": result,
        }
    )
    return result, report


def _summary_lines(report: dict) -> list[str]:
    env = report["environment"]
    lines = [
        f"capdet benchmark: workload={report['workload']} seed={report['seed']} trace={report['trace']}",
        f"  why: {report['why']}",
        f"  env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, nproc {env['nproc']}, "
        f"loadavg {report['loadavg_start'][0]:.2f} -> {report['loadavg_end'][0]:.2f}",
    ]
    for stage, s in report["stages"].items():
        rate = s["items"] / s["seconds"] if s["seconds"] else 0.0
        lines.append(f"  stage {stage}: {s['items']} items in {s['seconds']:.3f} s ({rate:.1f}/s)")
    for key, value in report["quality"].items():
        lines.append(f"  quality {key}: {value:.6g}")
    for key, value in report["hashes"].items():
        lines.append(f"  sha256 {key}: {value}")
    bad = [k for k, ok in report["checks"].items() if not ok]
    passed = f"  checks: {len(report['checks']) - len(bad)}/{len(report['checks'])} passed"
    lines.append(passed + (f"; FAILED: {', '.join(bad)}" if bad else ""))
    if "round_rel" in report:
        lines.append(
            f"  rounds: {len(report['round_s'])}, median {statistics.median(report['round_s']):.3f} s; "
            f"{len(report['probe_s'])} probes, median {statistics.median(report['probe_s']) * 1e3:.3f} ms"
        )
    for name, m in report["result"]["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        _import_package()
        result, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )
    print("\n".join(_summary_lines(report)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
