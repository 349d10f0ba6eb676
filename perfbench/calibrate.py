"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on share cores with other tenants, and
their speed for pure-Python work changes by up to 1.7x over periods of a
few seconds.  A median of raw wall times then depends on how much of a run
fell into slow periods.  So every timed interval is bracketed by short
runs of a fixed pure-Python loop, and reported in *reference seconds*: its
wall time times ``REFERENCE_S`` over the loop's current duration.  On a
machine where the loop takes ``REFERENCE_S`` a reference second is a wall
second.  The loop is benchmark code, so no change to the library moves it.
"""

from __future__ import annotations

from time import perf_counter

from .reference import combine

REFERENCE_S = 0.002
LOOP_STEPS = 5700
LOOP_RUNS = 4

_TABLE = {i: (i % 17) / 20.0 - 0.4 for i in range(256)}


def _loop() -> float:
    table = _TABLE
    acc = 0.0
    for i in range(LOOP_STEPS):
        acc = combine(acc * 0.5, table[i & 255])
    return acc


def loop_s() -> float:
    """The current duration of the calibration loop: the mean of a few runs,
    which averages the machine's speed the way a longer interval does."""
    total = 0.0
    for _ in range(LOOP_RUNS):
        t0 = perf_counter()
        _loop()
        total += perf_counter() - t0
    return total / LOOP_RUNS


def reference_s(wall: float, before: float, after: float) -> float:
    """Wall seconds in reference seconds, given the loop durations measured
    just before and just after the interval."""
    return wall * REFERENCE_S * 2.0 / (before + after)
