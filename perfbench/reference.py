"""A fixed reference task that measures how fast the host is running.

The host's speed varies by up to a third within seconds and drifts over
minutes, and process CPU time drifts with it. A run therefore times this
task in short bursts between layouts and scales its layout times by
``NOMINAL_S`` over the median of those samples: the timings then read as on
a host where the task takes ``NOMINAL_S``. The task mixes dict and sort work
in the interpreter with small matrix products, as the program does. It uses
nothing from trimask, so no change to the program moves it.
"""

from __future__ import annotations

import random
import time

import numpy as np

NOMINAL_S = 0.015  # the task's median time on a quiet 2-core x86-64 VM
BURST = 5
EVERY_S = 1.0  # at most one burst per this much time of layouts


def task() -> float:
    rng = random.Random(0)
    table = {i: rng.random() for i in range(30000)}
    ordered = sorted(table.values())
    a = np.random.default_rng(0).normal(size=(80, 80))
    for _ in range(150):
        a = a @ a
        a /= np.abs(a).max()
    return ordered[0] + float(a[0, 0])


def burst() -> list[float]:
    """Seconds taken by each of ``BURST`` back-to-back runs of the task."""
    times = []
    for _ in range(BURST):
        t0 = time.perf_counter()
        task()
        times.append(time.perf_counter() - t0)
    return times
