"""Machine-speed calibration that runs alongside the workload.

The benchmark shares a host whose speed drifts by 20-40% over seconds to
minutes as other tenants load it, so raw throughput of the same code on the
same seed varies that much between runs.  A :class:`Sampler` runs one small
fixed kernel every ``PERIOD_S`` seconds of wall time from a ``SIGALRM``
handler, interleaved with the workload on the same thread, cycling through
``KERNELS``.  The machine's speed over a run is the geometric mean over the
kernels of reference time over typical time, the mean of all but the slowest
``TRIM`` of a kernel's calls: a rare long pause (a garbage collection or a
preemption) that lands in a 1 ms kernel call would otherwise move the mean
far more than it moves the run.  Multiplying a run's times by it
puts them on a reference-speed scale, which moves by a few percent between
runs while a change to the program moves it fully.

The kernels are kinds of work the workloads do that slow down the way the
workloads do under contention from other tenants: small-array numpy calls in
a Python loop (Viterbi, demapping), FFTs with reductions (frame generation,
the grid oracle), and an FFT and a pass over arrays larger than the cache
(the grid oracle).  A pure-Python loop and small dense LAPACK calls were
tried and left out: on a 2-CPU shared host their times followed the
workloads' times worse than the raw times varied.  Kernels
draw no random numbers and touch no program state, so outputs are the same
with and without them.  Time spent in the handler is excluded from
:meth:`Sampler.clock`.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.03
TRIM = 0.05

_PRED0 = np.arange(64) // 2
_PRED1 = (_PRED0 + 32) % 64
_UBIT = np.arange(64) % 2
_OUT = np.ones((64, 2))
_LLR = np.linspace(-1.0, 1.0, 60)
_X_SMALL = np.exp(1j * np.arange(4096) / 7.0)
_X_LARGE = np.exp(1j * np.arange(65536) / 7.0)
_STREAM = np.ones(1_000_000)


def small_arrays():
    pm = np.zeros(64)
    for t in range(30):
        b = -(_OUT * _LLR[2 * t] + _OUT * _LLR[2 * t + 1])
        c0 = pm[_PRED0] + b[_PRED0, _UBIT]
        c1 = pm[_PRED1] + b[_PRED1, _UBIT]
        pm = np.where(c1 > c0, c1, c0)


def fft_small():
    for _ in range(3):
        np.abs(np.fft.fft(_X_SMALL)).sum()


def fft_large():
    np.abs(np.fft.fft(_X_LARGE)).sum()


def stream():
    (_STREAM * 2.0).sum()


# Each kernel with its reference time (seconds), about its time on an idle
# 2.1 GHz Xeon core; the reference times fix the scale of reference speed.
KERNELS = ((small_arrays, 0.45e-3), (fft_small, 0.30e-3), (fft_large, 1.8e-3), (stream, 1.5e-3))


def speed(typical):
    """Machine speed relative to the reference, from typical kernel times."""
    return float(np.exp(np.mean([np.log(ref / t) for (_, ref), t in zip(KERNELS, typical)])))


def typical(samples):
    """Mean of the samples without the slowest ``TRIM`` of them."""
    kept = sorted(samples)[:max(1, round(len(samples) * (1 - TRIM)))]
    return sum(kept) / len(kept)


def measure_speed(passes):
    """Machine speed from ``passes`` back-to-back calls of each kernel."""
    times = []
    for k, _ in KERNELS:
        k()
        samples = []
        for _ in range(passes):
            t0 = perf_counter()
            k()
            samples.append(perf_counter() - t0)
        times.append(typical(samples))
    return speed(times)


class Sampler:
    """Time one of ``KERNELS`` every ``PERIOD_S`` while the ``with`` block runs."""

    def __init__(self):
        self.samples = [[] for _ in KERNELS]
        self.spent = 0.0  # seconds spent inside the handler
        self._next = 0

    def clock(self):
        """``perf_counter`` minus the time taken by calibration so far."""
        return perf_counter() - self.spent

    def _tick(self, signum, frame):
        t0 = perf_counter()
        i = self._next % len(KERNELS)
        self._next += 1
        KERNELS[i][0]()
        t1 = perf_counter()
        self.samples[i].append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        for k, _ in KERNELS:  # warm FFT plans and caches before the first sample
            k()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def typical(self):
        """Typical time of each kernel over the block (seconds), by kernel name."""
        return {k.__name__: typical(s) for (k, _), s in zip(KERNELS, self.samples) if s}

    def calls(self):
        return sum(len(s) for s in self.samples)

    def speed(self):
        """Machine speed over the block relative to the reference (1 = reference)."""
        if not all(self.samples):
            raise RuntimeError("too few calibration samples: the block was shorter than a kernel cycle")
        return speed([typical(s) for s in self.samples])
