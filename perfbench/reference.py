"""A fixed reference computation that probes the host's current speed.

The speed of a shared two-core host varies by up to a factor of two from
one second to the next and drifts by 15 to 20 % over minutes; over ten
runs, raw wall times of the workloads spread by 0.20 to 0.28 of their
median (distance between quartiles), and no in-run median removes a
drift that outlasts the run. So the runner times this computation about
once a second during every round, and ``run_rel`` divides the round's
wall time by the mean probe time: both see the same host, so the ratio
moves with the code under test and much less with the host.

The kernel mixes what capdet's hot paths do: small NumPy calls (an affine
map, row softmax, argmax, clipping) and scalar Python arithmetic on box
tuples. It never changes, so only the code under test moves the ratio.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20240601)
_X = _RNG.normal(size=(40, 64))
_W = _RNG.normal(size=(64, 9))
_CENTERS = _RNG.uniform(0.2, 0.8, size=(8, 2))
_HALF = _RNG.uniform(0.05, 0.2, size=(8, 2))
_BOXES = [tuple(float(v) for v in box) for box in np.hstack([_CENTERS - _HALF, _CENTERS + _HALF])]
# about 1.5 ms on a 2 GHz Xeon core: short against the ~1 s between probes
ITERATIONS = 30


def _iou(a: tuple, b: tuple) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def _kernel() -> float:
    total = 0.0
    for _ in range(ITERATIONS):
        z = _X @ _W
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        s = e / e.sum(axis=1, keepdims=True)
        i = int(np.argmax(s[:, 3]))
        total += float(np.clip(s[i, 3], 1e-12, 1.0 - 1e-12))
        for a in _BOXES:
            total += _iou(a, _BOXES[0])
    return total


def probe_seconds() -> float:
    """Wall time of one pass of the reference computation."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
