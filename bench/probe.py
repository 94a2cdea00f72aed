"""Host-speed samples taken inside a worker, on the core that runs the pass.

On a shared VM the throughput of a vCPU moves by 40% or more, over
stretches from a fraction of a second to minutes (bench/README.md, Noise).
A ``Sampler`` times a fixed pure-Python kernel at chosen points and, while
``running()``, every ``PERIOD_S`` from a SIGALRM handler, so between the
operations of the pass on the same core.  ``work_s(a, b)`` turns a measured
interval into the seconds it would have taken with the kernel at its
reference time ``REF_S``: each gap between samples is weighted by ``REF_S``
over the mean kernel time of the samples on either side, and the samples'
own time is left out.

A handler runs between bytecodes, so during one long native call (an
``eigh`` of several seconds) the samples wait for it to return.  This module
imports nothing heavy: the worker takes its first sample before it imports
numpy.
"""

from __future__ import annotations

import contextlib
import signal
import time

PERIOD_S = 0.05
# Kernel time at the fast level of a 2-vCPU Xeon (Sapphire Rapids) VM; it
# fixes the unit of the corrected times, not their ratios.
REF_S = 6.5e-4


def _kernel() -> float:
    s = 0.0
    for i in range(12000):
        s += i * 0.5
    return s


class Sampler:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end), monotonic

    def sample(self, *_signal_args) -> None:
        t0 = time.monotonic()
        _kernel()
        self.samples.append((t0, time.monotonic()))

    @contextlib.contextmanager
    def running(self):
        """Sample every PERIOD_S while the block runs, and at both ends."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def work_s(self, a: float, b: float) -> float:
        """Seconds the monotonic interval [a, b] would take at the reference
        speed.  Time before the first sample and after the last takes the
        speed of that sample."""
        if not self.samples:
            raise RuntimeError("no host-speed samples")
        samples = sorted(self.samples)
        gaps = [(-float("inf"), samples[0][0], samples[0][1] - samples[0][0])]
        for (s0, e0), (s1, e1) in zip(samples, samples[1:]):
            gaps.append((e0, s1, ((e0 - s0) + (e1 - s1)) / 2))
        gaps.append((samples[-1][1], float("inf"), samples[-1][1] - samples[-1][0]))
        total = 0.0
        for lo, hi, kernel_s in gaps:
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap * REF_S / kernel_s
        return total
