"""Machine-speed sampling for the benchmark's time measurements.

Imported by the import-time probe in a fresh interpreter as well as by
the worker, so it imports nothing the program would otherwise load
first: only ``signal`` and ``time``.
"""

from __future__ import annotations

import signal
import time

# The machine's speed swings by half within seconds as other tenants
# come and go.  A fixed micro-kernel (bitmask loops, as in the subset
# table) is timed from a timer signal every SAMPLE_INTERVAL_S while a
# job runs, and AROUND_RUNS times before and after it, so each job gets
# the machine speed it actually ran at.  run.py rescales job times by it.
SAMPLE_INTERVAL_S = 0.05
AROUND_RUNS = 10
_ROWS = tuple(
    ((1 << (v + 1) % 14) | (1 << (v - 1) % 14) | (1 << (5 * v + 3) % 14)) & ~(1 << v)
    for v in range(14)
)


def _micro_kernel() -> int:
    """About a millisecond of allocation-free interpreter work."""
    total = 0
    for mask in range(1, 1 << 10):
        bits = mask
        while bits:
            low = bits & -bits
            total ^= _ROWS[low.bit_length() - 1] & mask
            bits ^= low
    return total


class SpeedSampler:
    """Micro-kernel timings around and during one measured call.

    ``measure(fn)`` returns (seconds the call took without the sampling
    inside it, mean micro-kernel seconds over the call).
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._spent = 0.0

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        _micro_kernel()
        end = time.perf_counter()
        self._samples.append(end - start)
        self._spent += time.perf_counter() - start

    def measure(self, fn) -> tuple[float, float]:
        self._samples, self._spent = [], 0.0
        for _ in range(AROUND_RUNS):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._spent = 0.0
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start - self._spent
            signal.signal(signal.SIGALRM, previous)
        for _ in range(AROUND_RUNS):
            self._sample()
        return seconds, sum(self._samples) / len(self._samples)
