"""Machine-speed calibration interleaved with the timed work.

The benchmark host is shared: its speed moves by up to 1.5x from one
second to the next, so wall times of the same code spread by 10 % and
more between runs (README, Figures).  While a run's timed phase goes on, a
one-shot ``SIGALRM`` timer interrupts it every ``PERIOD_S`` and runs a
fixed loop of the benchmark's own in the handler: pure-Python arithmetic
and dictionary look-ups, and numpy on small arrays, the two kinds of work
the program does.  The loop's mean time says how fast the machine ran
meanwhile, and times are scaled by ``REFERENCE_S / mean``: to a machine on
which the loop takes ``REFERENCE_S``.  A pass is scaled by the samples
taken while it ran, a set-up by those of its process.  The handler's own
time is taken out of the timed work (``busy``).

The loop does not call the program, so a change to the program moves the
scaled times as much as the raw ones.  The timer is re-armed at the end of
each handler, so a handler never interrupts itself.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
# mean time of one calibration loop on the machine of README, Figures
REFERENCE_S = 0.002

_TABLE = {"a": 1.0, "b": 2.0}
_ARRAY = np.random.default_rng(0).random((20, 20))


def calibration_loop():
    """The fixed work timed by the handler: about 1.5 ms of pure Python
    and 0.5 ms of small-array numpy at REFERENCE_S."""
    total = 0.0
    for i in range(6000):
        x = _TABLE["a"] * i + _TABLE["b"]
        total += math.sin(x) * 0.5 if i & 1 else x * 1e-9
    for _ in range(100):
        total += float((_ARRAY * 1.1 + 0.3).sum())
    return total


class Calibrator:
    """Samples the calibration loop every PERIOD_S between ``start`` and
    ``stop``; ``busy`` is the time spent in the handler so far."""

    def __init__(self):
        self.samples = []
        self.busy = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = perf_counter()
        calibration_loop()
        self.samples.append(perf_counter() - start)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self.busy += perf_counter() - start

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mean(self, first=0):
        """Mean loop time of the samples from index ``first`` on."""
        return statistics.fmean(self.samples[first:])

    def scale(self, first=0):
        """Factor that turns a wall time into a time at the reference
        speed, from the samples taken since ``len(samples)`` was
        ``first``."""
        if len(self.samples) <= first:
            raise RuntimeError("no calibration sample was taken")
        return REFERENCE_S / self.mean(first)
