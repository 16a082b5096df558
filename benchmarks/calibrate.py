"""Times scaled to a reference speed.

The virtual machines this benchmark runs on change speed by up to 1.8x in
phases of seconds to tens of seconds, which moves raw wall times far more
than the bounds a change is judged by.  So the benchmark times a fixed
reference loop (Fraction arithmetic, dict updates and small numpy
operations, like the package's own work, but no package code) right before
and after every timed block, and reports

    scaled time = wall time * REF_MS / (geometric mean of the two loop times)

that is, the wall time on a machine where the loop takes REF_MS.  A change
to the package moves the scaled time exactly as it moves the wall time at a
steady machine speed.  The loop never changes with the package, so times
stay comparable across commits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

import numpy as np

# Near the loop's time on a 2-vCPU x86-64 VM in its fast phase (2.3 ms).
# Any fixed value would do: commits are compared at the same REF_MS.
REF_MS = 2.0


def reference():
    acc = Fraction(0)
    counts = {}
    for i in range(600):
        f = Fraction(i % 97 - 48, i % 13 + 1)
        acc = max(acc, f + acc / 7) if i % 3 else acc - f
        counts[i % 61] = counts.get(i % 61, 0) + 1
    a = np.arange(500, dtype=np.int64)
    for _ in range(10):
        a = np.minimum(a, a[::-1] + 3)
    return acc


def reference_ms() -> float:
    t0 = perf_counter()
    reference()
    return (perf_counter() - t0) * 1000.0


class Clock:
    """Scale factors for consecutive timed blocks.

    Call `factor()` right after each timed block; the first block's
    "before" loop runs when the Clock is made."""

    def __init__(self):
        self.ref_ms = [reference_ms()]

    def factor(self) -> float:
        now = reference_ms()
        f = REF_MS / math.sqrt(self.ref_ms[-1] * now)
        self.ref_ms.append(now)
        return f
