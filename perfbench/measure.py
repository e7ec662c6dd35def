"""Timing helpers: the frozen reference loop, the aggregates the metrics
use, and the in-process per-solve deadline.

Nothing here calls p5color.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

# Frozen work: never retune these constants, or normalised timings from
# before and after the change stop being comparable.
_REF_MASKS = tuple((i * 0x9E3779B1) & 0xFFFFFFFFFFFFFFFF for i in range(64))
_REF_STEPS = 3000


def reference_loop() -> int:
    """About 2 ms of pure-Python work shaped like the solvers' inner
    loops: big-integer bit tricks, dict updates and list indexing."""
    seen: dict[int, int] = {}
    acc = 0
    for i in range(_REF_STEPS):
        m = _REF_MASKS[i & 63] ^ (acc << 1)
        low = m & -m
        acc = (acc + low.bit_length() + m.bit_count()) & 0xFFFFFFFF
        seen[acc & 255] = seen.get(acc & 255, 0) + 1
    return acc + len(seen)


def time_reference() -> float:
    """Wall time of one reference loop, in ms."""
    start = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - start) * 1000.0


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    if len(set(lx)) < 2:
        raise ValueError("a slope needs at least two distinct x values")
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def charged(samples: list[float] | None, deadline: float) -> float:
    """An instance's time: the median of its samples, or the whole
    deadline when it failed (samples is None)."""
    if samples is None:
        return deadline
    return statistics.median(samples)


class DeadlineExceeded(Exception):
    """A solve ran past the per-solve deadline."""


def _raise_deadline(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    """Interrupt the enclosed code with DeadlineExceeded after seconds of
    wall time, by SIGALRM in this process: no threads, no children."""
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
