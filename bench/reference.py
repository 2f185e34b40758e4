"""The reference loop: a fixed piece of pure-Python work whose time tracks
the speed the machine gives this process at the moment, and a sampler that
times it on a timer signal while ops run.

Kept apart from the harness so that a set-up interpreter can use it without
importing the library first.
"""

from __future__ import annotations

import signal
import statistics
import time

# iterations of one reference loop
LOOPS = 2_000
# its time at full speed on the machine the bounds were set on (a shared
# 2-vCPU Xeon VM, CPython 3.11); reported times are scaled to this speed
NOMINAL_S = 0.16e-3
# wall time between two samples
INTERVAL_S = 0.01


def reference() -> float:
    """Seconds for one reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Sampler:
    """While active, times the reference loop every ``INTERVAL_S`` from a
    SIGALRM handler, which runs between the bytecodes of whatever op is
    running. ``stolen`` is the time spent in the handler, which the caller
    takes out of its own timings."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def __enter__(self) -> "Sampler":
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference())
        self.stolen += time.perf_counter() - start

    def take(self) -> float:
        """Factor that turns seconds measured since the last ``take`` into
        seconds at nominal speed, from the samples taken meanwhile (or from
        one loop now, if there were none)."""
        samples, self.samples = self.samples, []
        return NOMINAL_S / statistics.fmean(samples or [reference()])
