"""Host-speed calibration for the pmcs benchmark.

The benchmark runs on shared cores whose speed swings by tens of percent over
seconds to minutes (other tenants).  Two fixed kernels, owned by the
benchmark and untouched by any change to pmcs, are timed next to the work:

- ``interpreter``: interpreted float work and 0-d numpy recurrences, the
  instruction mix of the closed forms, the CLI start-up and rendering;
- ``dense``: one dense complex matmul, the instruction mix of the oracle.

A run's speed factor for a kernel is the median kernel time divided by
``REFERENCE`` (the kernel's time on the machine the benchmark was tuned on);
timings are divided by it and rates multiplied, which cancels most of the
host's swings while a faster or slower program still shows in full.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median kernel seconds on the tuning machine (2 shared Xeon cores, OpenBLAS
# 0.3.31 with 2 threads); they only fix the unit of the scaled timings.
REFERENCE = {"interpreter": 0.0070, "dense": 0.00125}

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.standard_normal((224, 224)) + 1j * _RNG.standard_normal((224, 224))


def _interpreter() -> float:
    entries = []
    for k in range(1, 1200):
        for l in range(4):
            entries.append((math.log(k) - 2.0 * math.lgamma(l + 1) + 0.5 * l, 1.0))
    top = max(e[0] for e in entries)
    total = sum(sign * math.exp(mag - top) for mag, sign in entries)
    x = np.asarray(-0.4)
    prev, cur = np.ones_like(x), 1.0 - x
    for k in range(1, 400):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        total += float(np.max(np.abs(cur)))
    return total


def _dense() -> float:
    return float(np.abs(_MATRIX @ _MATRIX).max())


KERNELS = {"interpreter": _interpreter, "dense": _dense}


def measure(reps: int = 3) -> dict[str, float]:
    """Median seconds of each kernel over ``reps`` calls."""
    out = {}
    for name, kernel in KERNELS.items():
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        out[name] = statistics.median(times)
    return out


def speed_factor(samples: list[dict[str, float]], kernel: str) -> float:
    """Median kernel time over the samples, relative to the reference: above 1
    the host ran slower than the tuning machine."""
    return statistics.median(s[kernel] for s in samples) / REFERENCE[kernel]
