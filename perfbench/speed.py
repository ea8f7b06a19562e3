"""Scaling timings to a nominal machine speed.

The machine this benchmark was tuned on is shared, and its speed for
interpreter-bound code switches between states about 1.6x apart, for
seconds to minutes at a time.  Raw medians of whole runs then differ by
25-40 % between runs of the same code.  So the benchmark times a fixed
reference kernel (pure Python, no logcap code) while the work runs and
scales each measured interval by REF_NOMINAL / (the kernel's mean time
during and around it).  A change to logcap does not touch the kernel, so
the scaled figures still move with logcap's own cost.

Set-up time is mostly interpreter start and imports, which the kernel
tracks poorly.  It is scaled instead by a reference start: a fresh
interpreter that imports a fixed set of standard modules and no logcap code.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

REF_EVERY = 0.1  # seconds between reference timings
# the kernel's time on the tuning machine in its fast state; the unit of
# every scaled timing is "seconds on that machine in that state"
REF_NOMINAL = 0.004
START_REF = [sys.executable, "-c", "import argparse, concurrent.futures, dataclasses, fractions, json, pathlib"]
# the reference start's time on the tuning machine in its fast state
START_NOMINAL = 0.065


def reference_kernel() -> int:
    """Fixed interpreter work shaped like logcap's: tuple arithmetic mod a
    prime power, dict traffic and small allocations."""
    m = 16
    seen: dict = {}
    acc = 0
    for i in range(4000):
        t = ((i * 7) % m, (i * 11) % m, (i * 13) % m)
        u = tuple((a + b) % m for a, b in zip(t, (3, 5, 7)))
        seen[u] = seen.get(u, 0) + 1
        acc += u[0]
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def time_process(cmd) -> float:
    """Seconds for ``cmd`` to run to its end, its output discarded."""
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Speedometer:
    """Times the kernel every REF_EVERY seconds while the work runs.

    Used as a context manager in the main thread: a SIGALRM interval timer
    interrupts the work between two bytecodes, times the kernel, and
    returns.  ``work`` removes those interruptions from an interval and
    scales what is left.
    """

    def __init__(self):
        self.samples: list = []  # (start, end) of each kernel timing

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def work(self, start: float, end: float) -> tuple:
        """(raw, scaled) seconds of work in [start, end]: the interval less
        the kernel timings inside it, then scaled by those timings and the
        nearest one on each side."""
        inside = [(a, b) for a, b in self.samples if start <= a and b <= end]
        before = [(a, b) for a, b in self.samples if b <= start][-1:]
        after = [(a, b) for a, b in self.samples if a >= end][:1]
        refs = [b - a for a, b in before + inside + after]
        raw = end - start - sum(b - a for a, b in inside)
        return raw, raw * REF_NOMINAL * len(refs) / sum(refs)
