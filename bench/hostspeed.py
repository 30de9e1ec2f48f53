"""The host's current speed, from a fixed reference kernel.

On a shared virtual machine the same actlab operation runs up to 2x slower in
a busy spell than in a quiet one, with CPU time equal to wall time, and the
spells last from seconds to many minutes. The benchmark runs a fixed kernel
between its timed pieces of work and divides their mean time by the kernel's
mean time over the same run, which cancels the slow part of that: the kernel
slows down with the host but never changes with actlab's code.

The kernel does what actlab's hot path does: Python calls on 10-row float64
arrays (matmul, ReLU, softmax, a reduction back to a Python float), with a
64x128 @ 128x128 matmul every eighth step for the BLAS-bound part. It never
imports actlab.
"""

import gc
import time

import numpy as np

STEPS = 6000
REFERENCE_S = 0.15  # the kernel's time on the reference host; scaled times assume it


def kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 2))
    w1 = rng.standard_normal((2, 32))
    w2 = rng.standard_normal((32, 2))
    big = rng.standard_normal((64, 128))
    wide = rng.standard_normal((128, 128))
    acc = 0.0
    for i in range(STEPS):
        h = np.maximum(x @ w1, 0.0)
        o = h @ w2
        e = np.exp(o - o.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        acc += float(p[0, 0])
        if i % 8 == 0:
            acc += float((big @ wide)[0, 0])
    return acc


def kernel_seconds():
    gc.collect()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class KernelClock:
    """Times pieces of work between runs of the kernel.

    Consecutive pieces share the kernel run between them, so a run of n
    pieces costs n + 1 kernel runs.
    """

    def __init__(self):
        self._last = None

    def time(self, fn):
        """(fn(), wall seconds, mean seconds of the kernel runs before and after)."""
        before = kernel_seconds() if self._last is None else self._last
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        self._last = kernel_seconds()
        return result, seconds, (before + self._last) / 2


def scaled(seconds, kernel_s):
    """Wall seconds at the reference host's speed, given the kernel's seconds then."""
    return seconds * REFERENCE_S / kernel_s
