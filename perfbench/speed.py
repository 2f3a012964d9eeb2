"""Host-speed reference: a fixed numpy and pure-Python kernel, timed during
and between operations.

On the shared 2-core host this benchmark was built on, the speed of one
process changes by up to 2.6x for seconds to minutes at a time, in CPU time
as much as in wall time (with no steal time reported), so raw wall times of
two runs of the same code differ by more than the changes the benchmark must
show.  The kernel runs the same kind of work as qesolve's hot loops (numpy
on small arrays inside a Python loop) and nothing of qesolve, so its time
tracks the host's speed and no change to the program can move it.  A wall
time t is reported scaled to the reference speed as t * REF_MS / k, with k
the mean kernel time sampled during the call and within WINDOW_S of it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_MS = 5.0  # the kernel's time at reference speed; sets the scale only

_DIAG = np.linspace(1.0, 3.0, 600)
_SHIFTS = np.linspace(1.2, 2.5, 8)


def kernel() -> float:
    """A Sturm-count pass over 600 points with 8 shifts (about 5 ms).

    Chosen by measurement: over six runs of each workload, scaling by this
    kernel left run-to-run spreads (IQR/median) of 3-5% in total and median
    operation time, against 12-23% raw.  A kernel of batched 4x4 solves,
    like the root engine's, tracked every workload worse, the sweep
    included."""
    q = _DIAG[0] - _SHIFTS
    counts = (q < 0.0).astype(int)
    for d in _DIAG[1:]:
        q = np.where(np.abs(q) < 1e-300, -1e-300, q)
        q = d - _SHIFTS - 0.5 / q
        counts += q < 0.0
    return float(counts.sum())


class Sampler:
    """Times the kernel every `interval` seconds from a SIGALRM handler while
    active, also inside the calls it measures.

    `measure(fn)` returns fn's result, any exception it raised, and its wall
    time less the time the handler spent in it (s).  `scaled(walls)` scales
    each measured wall time to the reference speed by the mean kernel time
    sampled during the call or within `WINDOW_S` of it.
    """

    WINDOW_S = 0.25

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[tuple] = []  # (start, ms)
        self.calls: list[tuple] = []  # (start, end) of each measured call

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, (time.perf_counter() - t0) * 1e3))

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def measure(self, fn):
        first = len(self.samples)
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # the caller records the failure
            result, error = None, exc
        t1 = time.perf_counter()
        self.calls.append((t0, t1))
        spent = sum(ms for _, ms in self.samples[first:]) / 1e3
        return result, error, t1 - t0 - spent

    def scaled(self, walls) -> list[float]:
        starts = np.array([t for t, _ in self.samples])
        kernel_ms = np.array([ms for _, ms in self.samples])
        out = []
        for (t0, t1), wall in zip(self.calls, walls):
            near = kernel_ms[(starts >= t0 - self.WINDOW_S) & (starts <= t1 + self.WINDOW_S)]
            if near.size == 0:
                near = kernel_ms[[np.argmin(np.abs(starts - t0))]]
            out.append(wall * REF_MS / float(np.mean(near)))
        return out
