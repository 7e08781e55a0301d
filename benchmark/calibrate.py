"""Host-speed calibration: every reported time is in seconds at a reference speed.

On a shared host the speed of a core drifts with what the neighbours run: a
fixed pure-Python loop measured anywhere from 0.26 to 0.45 s within a few
minutes on a 2-vCPU Intel Xeon, and whole runs of the benchmark land in a
fast or a slow spell. Such drift moves every time the benchmark reports by
the same factor, and it would swamp any change of the program.

So the benchmark times a fixed kernel of its own, which the program never
runs, right before and right after every timed operation, and scales the
operation's wall time by ``REFERENCE_S / mean(kernel before, kernel after)``.
The result is the time the operation would take on a host where the kernel
takes ``REFERENCE_S``. The kernel mixes what the program spends its time on:
exact rational arithmetic in Python, complex floating-point arithmetic in
Python, small numpy eigenvalue and root solves, and object allocation and
lookups in a table larger than a core's L2 cache. The last two parts matter:
a kernel of arithmetic alone sped up 1.8x in a quiet spell where the
program's operations and interpreter starts sped up only 1.3-1.5x, while
against this mix their times follow the kernel's with log-log slopes of
0.88-1.12 (9 minutes of alternating kernels and operations of all three
workloads on the host above). A faster program
lowers the scaled time exactly as it lowers the raw one; the raw times stay
in ``report.json`` beside the scaled ones.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from time import perf_counter

import numpy as np

# The kernel's time on one core of a 2-vCPU Intel Xeon host in a quiet spell.
REFERENCE_S = 0.04

_MATRICES = np.cos(np.arange(40 * 5 * 5, dtype=float)).reshape(40, 5, 5)
_POLY = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
# About 10 MB of dict and int objects, looked up in a fixed random order.
_TABLE = {i * 7919 % 1000003: i for i in range(100000)}
_KEYS = random.Random(0).sample(list(_TABLE), 30000)


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed calibration kernel."""
    start = perf_counter()
    q = Fraction(1, 3)
    z = 0.3 + 0.1j
    n = 0
    for i in range(3000):
        q = q * Fraction(7, 5) - Fraction(i, 11)
        q = Fraction(q.numerator % 10007, q.denominator % 997 + 1)
        z = z * z * 0.5 + cmath.exp(1j * i * 1e-3) * 0.3
        n += i * i
    for _ in range(30):
        np.linalg.eigvals(_MATRICES)
        np.roots(_POLY)
    table = _TABLE
    for key in _KEYS:
        n += table[key]
    rows = [(i, float(i), str(i)) for i in range(15000)]
    index = {row[2]: row for row in rows}
    n += len(index)
    return perf_counter() - start


class Clock:
    """Scales consecutive timed intervals by the kernel timed around each."""

    def __init__(self):
        self._last = kernel_seconds()

    def scale(self, seconds: float) -> tuple:
        """(scaled seconds, kernel seconds) for an interval that just ended."""
        before, self._last = self._last, kernel_seconds()
        kernel = 0.5 * (before + self._last)
        return seconds * REFERENCE_S / kernel, kernel
