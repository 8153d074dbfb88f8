"""A fixed reference workload that tracks the host's speed.

On a shared host the speed of a core drifts with the neighbours' load,
by a quarter over periods of tens of seconds, and every `simulate` run in
a timing window drifts with it. The benchmark divides each run's wall
time by the mean time of this loop measured just before and after it,
which cancels most of the drift.

The loop mirrors the kinds of work `simulate` does, because the host's
contention slows them by different amounts: small-array numpy arithmetic
(RK4), tiny matrix products and reductions (Dormand-Prince stage sums
and error norm), frozen dataclass and named-tuple churn with scalar math
(per-point envelope and transition samples), and %.17g formatting (CSV
export). Against the sum of the three parts the ratio varies less, on
every workload, than against any one part. It uses numpy only and never
milnesea, so no change to the program moves it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_STAGES = [np.arange(1.0, i + 1.0) / (i + 1.0) for i in range(7)]


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))


class _Sample(NamedTuple):
    t: float
    gap: float


def _rk4_and_format():
    y, h = np.array([1.0, 0.0]), 1e-3

    def f(y):
        return np.array([y[1], -y[0] - 0.1 * y[1]])

    for _ in range(2000):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    "\n".join(format(float(v), ".17g") for v in np.linspace(0.0, 1.0, 13000))


def _stage_sums():
    k = np.zeros((7, 2))
    y = np.array([1.0, 0.0])
    for _ in range(1000):
        for i in range(1, 7):
            yi = y + 1e-3 * (_STAGES[i] @ k[:i])
            k[i] = np.array([yi[1], -yi[0]])
            np.all(np.isfinite(k[i]))
        float(np.sqrt(np.mean((k[0] / (1e-12 + 1e-9 * np.abs(y))) ** 2)))


def _samples():
    out = []
    for i in range(7000):
        t = i * 1e-4
        pair = _Pair(math.cos(t), math.sin(2.0 * t))
        m = np.array([[pair.a, pair.b], [pair.b, pair.a]])
        m.setflags(write=False)
        out.append(_Sample(t, float(np.max(np.abs(m)))))


def reference_seconds() -> float:
    """Wall time of one pass over the three parts, about 0.15 s."""
    start = time.perf_counter()
    _rk4_and_format()
    _stage_sums()
    _samples()
    return time.perf_counter() - start
