"""Machine-speed gauge, for timing on a shared host that is not pinned or tuned.

On the shared 2-vCPU VM where the benchmark was defined, load from other
tenants changed the speed of pure-Python code by up to 1.8x, in spells of
seconds to minutes, so the per-cycle wall-time medians of 15-20 s landing
runs differed by up to 1.9x.  The gauge times a fixed pure-Python loop, which
runs no triphase code, on the thread's CPU clock just before and just after
each op.  The benchmark scales the op's time by the mean of
``NOMINAL_S / t_loop`` before and after it (``t_loop``: median of the last
few loop times).  The result is the time the op would have taken on a host
that runs the loop in ``NOMINAL_S``.  A change to the program moves the
scaled time by the same factor as it moves the unscaled time at a fixed host
speed.  In the same trial the scaled per-cycle median of 15 s landing runs
stayed within +-3 %.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque
from dataclasses import dataclass

#: loop time the scaled figures refer to; about the loop's time on an idle host
NOMINAL_S = 0.0005
RECENT = 3
_LOOP_STEPS = 200
_COEFFS = (-114.203, 199.396, -228.453, 164.691, -55.965, 7.245)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(name)


def reference_loop():
    """Small validated records, float math and calls, like the program's inner loops."""
    acc = 0.0
    p = _Point(0.0, 0.0, 1.0)
    for i in range(_LOOP_STEPS):
        p = _Point(p.x + 0.5, p.y - 0.25, p.z * 1.0000001)
        v = 0.01 * (i % 100)
        poly = 0.0
        for c in reversed(_COEFFS):
            poly = poly * v + c
        acc += math.hypot(p.x, p.y) + poly
    return acc


class Gauge:
    def __init__(self):
        self._recent = deque(maxlen=RECENT)

    def scale(self):
        """Time the loop once; NOMINAL_S over the median of the recent loop times."""
        start = time.thread_time()
        reference_loop()
        self._recent.append(time.thread_time() - start)
        return NOMINAL_S / statistics.median(self._recent)
