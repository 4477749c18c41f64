"""Host-speed reference: scales the end-to-end timings to a nominal host speed.

The benchmark host is a shared VM whose speed swings between a fast and a
slow state, up to 2x apart, for seconds to minutes at a time, so raw wall
times of identical runs spread far wider than any useful regression bound.
A fixed reference kernel, which does not use fpaccel, is therefore timed
between solves, and each solve's times are multiplied by

    nominal time / (mean of the reference samples just before and just after it).

A slower host slows the solve and the reference alike and cancels; a change
to fpaccel moves only the solve.  The scaled times read as seconds on a host
whose reference time is the kernel's nominal time.

The slow state slows kinds of work by different amounts, often small
compute-bound steps by about 1.6x and streaming updates of a matrix larger
than the caches by about 1.3x, so each workload uses the kernel that
matches where its time goes (workloads.HOST_KERNEL).  Small steps alone
track a workload of small problems best.  The dense updates alone track a
dense factorization well at some times and overcorrect it by up to 1.4x at
others, so qp_large, whose time is split between a dense factorization and
its iterations, gets both.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# A sample is taken before a solve when the last one is at least this old.
INTERVAL_S = 0.25

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((150, 150))
_V = _RNG.standard_normal(150)
_WORK = np.empty((1000, 1000))


def small_steps() -> float:
    """An interpreted loop and numpy steps on 150-vectors, as in the iterations
    of small problems; returns its wall time (about 5.5 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 0.5) % 7.0
    x = _V
    for _ in range(400):
        x = np.maximum(_M @ x, 0.0) * 0.01 + _V
        acc += float(np.abs(x).max())
    return time.perf_counter() - t0


def dense_updates() -> float:
    """Rank-1 updates of a 1000x1000 matrix, as in a dense KKT factorization;
    returns its wall time (about 15 ms)."""
    t0 = time.perf_counter()
    _WORK.fill(1.0)
    for k in range(0, 1000, 100):
        col = _WORK[k + 1 :, k] * 1e-3
        _WORK[k + 1 :, k + 1 :] -= np.outer(col, _WORK[k, k + 1 :])
    return time.perf_counter() - t0


def mixed() -> float:
    """Both kernels, for a workload whose time is split between the two kinds."""
    return small_steps() + dense_updates()


# name -> (kernel, its time in the fast state of the 2-vCPU VM the baseline
# was measured on, in seconds).
KERNELS = {
    "small": (small_steps, 0.0055),
    "mixed": (mixed, 0.0205),
}


class HostClock:
    """Reference samples of one run, as (end time, seconds) pairs."""

    def __init__(self, kernel: str):
        self.kernel, self.nominal = KERNELS[kernel]
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def sample(self):
        took = self.kernel()
        self.ends.append(time.perf_counter())
        self.seconds.append(took)

    def sample_if_stale(self):
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float) -> float:
        """Factor for a solve that started at ``start``.

        The samples bracketing it are the last one that ended before it
        started and the first one after, taken once it had ended.
        """
        k = bisect.bisect_right(self.ends, start)
        if not 0 < k < len(self.ends):
            raise ValueError("a solve must lie between two reference samples")
        return self.nominal / (0.5 * (self.seconds[k - 1] + self.seconds[k]))
