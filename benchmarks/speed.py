"""Machine-speed calibration for the benchmark's timings.

On a shared host the CPU's speed can drift by up to 2x within a minute
(other tenants share the physical cores), and every timing drifts with it.
So the benchmark runs a fixed kernel before and after every timed task and
scales the task's times by ``REFERENCE_S`` over the mean of those two
kernel times: each reported time is the time at the speed at which the
kernel takes ``REFERENCE_S``. Different kinds of work slow down by
different amounts, so each workload uses the kernel that does the same
kind of work as its dominant layer. No kernel calls targetq, so a change
to targetq cannot move it.
"""
import time

import numpy as np

# Reported times are at the speed at which the kernel takes this long.
REFERENCE_S = 0.1


def small_array_loop() -> float:
    """Small numpy operations in a Python loop, like a short cycle's
    per-pair updates."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    a = rng.random(4000) * 0.1
    for i in range(8000):
        lo = (i * 37) % 3900
        s = a[lo:lo + 40]
        cp = np.cumprod(1.0 - s[::-1])
        suffix = np.concatenate((cp[-2::-1], (1.0,)))
        acc += float(np.dot(s * suffix, s))
    return acc


def draw_and_sort() -> float:
    """Block draws and a stable sort of MB-sized arrays, like a long cycle."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(4):
        pairs = rng.integers(0, 52, size=200_000)
        u = rng.random(200_000)
        order = np.argsort(pairs, kind="stable")
        acc += float(np.bincount(pairs[order], minlength=52)[3]) + float(u[order][5])
    return acc


def step_loop() -> float:
    """A pure-Python per-step loop over list state, drawn in chunks of 8192
    steps, like the adaptive cycle."""
    rng = np.random.default_rng(12345)
    n = 52
    cont = (2.0 * rng.random(n)).tolist()
    v_first, v_second = rng.random(n).tolist(), (-rng.random(n)).tolist()
    values, counts, means = [0.0] * n, [0] * n, [0.0] * n
    stat = 0.0
    for chunk in range(20):
        pair_block = rng.integers(0, n, size=8192).tolist()
        u_block = rng.random(8192).tolist()
        alpha_block = (1.0 / (1.0 + np.arange(chunk * 8192, (chunk + 1) * 8192) / 104.0)).tolist()
        for i in range(8192):
            p = pair_block[i]
            r = v_first[p] if u_block[i] < 0.5 else v_second[p]
            delta = r + cont[p] - values[p]
            values[p] += alpha_block[i] * delta
            c = counts[p] + 1
            counts[p] = c
            old = means[p]
            new = old + (delta - old) / c
            means[p] = new
            stat += (abs(new) - abs(old)) / n
    return stat


class SpeedScale:
    """Brackets a sequence of timed tasks with runs of ``kernel``;
    ``next()``, called after each task, returns that task's scale factor."""

    def __init__(self, kernel):
        self._kernel = kernel
        self._before = self._time_kernel()

    def _time_kernel(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def next(self) -> float:
        after = self._time_kernel()
        scale = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return scale
