"""A fixed pure-Python loop whose pass time is the benchmark's unit of time.

The host's core speed drifts with other jobs' load; dividing an operation's
time by the pass time measured around it removes most of that drift.  One
pass takes about 1 ms on a 2-core Xeon host.
"""

import math
import statistics
import time

PASSES = 5
_POINTS = tuple((math.cos(0.7 * k) * (1.0 + 0.1 * k), math.sin(1.3 * k))
                for k in range(140))


def _one_pass():
    best = 0.0
    for i, (ax, ay) in enumerate(_POINTS):
        for bx, by in _POINTS[i + 1:]:
            d = math.hypot(ax - bx, ay - by)
            if d > best:
                best = d
    return best


def reference_ms():
    """Median time of one pass over a short batch, in ms."""
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        _one_pass()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3
