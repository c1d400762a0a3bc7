"""Span tracing of capdet's layers from outside the package.

A traced run swaps timing wrappers in for module (or class) attributes
that the package looks up when it is called, for example
``capdet.scorenet.forward`` or ``capdet.trainer.Adagrad.step``, so the
real program is traced rather than a copy of its loops. Every span keeps
its name, start, end and parent; all spans of one run share a run id.
Spans stay in memory until the run ends. Counting probes only bump a
counter, for functions that are called too often to time one by one.
Counts, and any quantity a measure hook reads off a call, are tallied per
root span (the outermost span open at the time), so work inside
``trainer.train`` can be told apart from work inside ``trainer.evaluate``.

Every swapped attribute is put back on exit, also when the traced code
raises. A target that no longer exists (a later refactor may delete a
function) is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import uuid
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

# reads extra quantities off one call: (args, kwargs, result) -> {key: amount}
Measure = Callable[[tuple, dict, object], Mapping[str, float]]

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module`` and a dotted ``attr`` path inside it."""

    module: str
    attr: str
    name: str  # metric prefix, ``<layer>.<function>``
    kind: str = "span"  # "span" times every call, "count" only counts calls


def _resolve(target: Target) -> tuple[object, str, object] | None:
    """(owner, attribute, value as stored on the owner), or None when absent."""
    try:
        owner: object = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            return None
    value = vars(owner).get(leaf, _MISSING)
    if value is _MISSING or not callable(value):
        return None
    return owner, leaf, value


class Tracer:
    """Span stack plus call counters for one traced run."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        # (span id, parent id or -1, name, start, end); ids index this list
        self.spans: list[tuple[int, int, str, float, float]] = []
        # (root span name, key) -> amount; keys are "<target>.calls" or measured
        self.tally: Counter[tuple[str, str]] = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _root(self, name: str) -> str:
        return self.spans[self._stack[0]][2] if self._stack else name

    def _span_wrapper(self, name: str, fn, measure: Measure | None):
        spans, stack, tally, clock = self.spans, self._stack, self.tally, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            root = self._root(name)
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((span_id, parent, name, clock(), 0.0))
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[span_id] = (span_id, parent, name, spans[span_id][3], clock())
            if measure is not None:
                for key, amount in measure(args, kwargs, result).items():
                    tally[(root, f"{name}.{key}")] += amount
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tally, key = self.tally, f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally[(self._root(name), key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets: Iterable[Target], measures: Mapping[str, Measure] | None = None) -> None:
        measures = measures or {}
        for target in targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target.name)
                continue
            owner, leaf, original = found
            if target.kind == "span":
                wrapper = self._span_wrapper(target.name, original, measures.get(target.name))
            else:
                wrapper = self._count_wrapper(target.name, original)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time in ms (span time minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end in self.spans:
            entry = stats.setdefault(name, {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_time[span_id]) * 1e3
        return stats

    def write(self, path: Path) -> None:
        """All spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, name, start, end in self.spans:
                f.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_us": round((start - t0) * 1e6, 1),
                            "end_us": round((end - t0) * 1e6, 1),
                        }
                    )
                    + "\n"
                )


def attribute_snapshot(targets: Iterable[Target]) -> dict[str, object]:
    """Identity of every target attribute, to check that a run left them as found."""
    snapshot: dict[str, object] = {}
    for target in targets:
        found = _resolve(target)
        snapshot[f"{target.module}:{target.attr}"] = None if found is None else found[2]
    return snapshot
