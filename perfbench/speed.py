"""Machine-speed calibration for the timed metrics.

On a shared host the speed of one core drifts: the same request takes up
to a fifth longer for tens of seconds at a time.  A fixed reference loop,
timed between requests (outside the timed region), tracks that drift, and
each timing is reported at the reference speed:

    scaled = measured * REFERENCE_S / (the reference loop's time around it)

REFERENCE_S is the loop's median time on the machine the baseline numbers
were taken on, so scaled figures read as seconds on that machine.  The
loop runs no gradix code: a change to gradix moves the scaled figures as
much as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.0068        # see baseline.json for the machine
EVERY_S = 0.2               # at most this long between two samples
WINDOW_S = 0.6              # samples this close to a timing scale it

_M = np.arange(64, dtype=np.int64).reshape(8, 8)


def reference_loop() -> float:
    """Seconds for a fixed mix of interpreter and small-array work."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    m = _M
    for _ in range(150):
        m = (m - np.outer(m[:, 1], m[2])) % 7
    return time.perf_counter() - start


class Clock:
    """Reference-loop samples taken during a run, as (time, seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.sample()

    def sample(self):
        self.samples.append((time.perf_counter(), reference_loop()))

    def maybe_sample(self):
        if time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()


def scales(samples, spans) -> list[float]:
    """For each (start, seconds) span, REFERENCE_S over the median of the
    samples taken within WINDOW_S of it (or of the nearest ones), so one
    disturbed sample does not skew a timing."""
    times = [t for t, _ in samples]
    out = []
    for start, took in spans:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, start + took + WINDOW_S)
        if hi - lo < 2:
            i = bisect.bisect_right(times, start)
            lo, hi = max(0, i - 1), min(len(times), i + 1)
        out.append(REFERENCE_S / statistics.median(v for _, v in samples[lo:hi]))
    return out
