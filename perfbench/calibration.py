"""Timing at a reference speed, for hosts whose cores change speed.

On a shared host the speed of one core drifts by tens of percent, within
seconds and over minutes, and two cores drift independently.  Raw times of
the same work then spread more than the bounds a benchmark can set.  So
the benchmark samples the speed of the core the work runs on, while it
runs, and scales the time to a reference speed:

    reference seconds = measured seconds * REF_UNIT_S / median unit time

A unit is a fixed piece of interpreter work: list stores and loads and
int arithmetic, the bytecode rootmat's pure-Python layers run, on a
64-element list, so that it measures the core rather than the state of the
caches the work leaves behind.  REF_UNIT_S is its median time on the box
the baseline was measured on, so there the reference seconds read as
seconds at that box's usual speed.  A change to rootmat does not change
the unit, so a saving shows in full.  (Interrupting the work still makes
the unit 4% to 9% slower than when it runs back to back; a change that
moves this share would move the reference seconds by as much.)

The set-up measurement loads this module in a fresh interpreter before
timing the import of rootmat, so it imports nothing rootmat imports but
`time`, which that measurement needs anyway.
"""

import signal
from time import perf_counter

REF_UNIT_S = 0.00025
PROBE_INTERVAL_S = 0.02
MIN_SAMPLES = 5


def unit():
    s = 0
    xs = [0] * 64
    for i in range(1500):
        xs[i & 63] = s
        s += xs[(i * 7) & 63] % 13 + i
    return s


def unit_seconds():
    start = perf_counter()
    unit()
    return perf_counter() - start


def _median(values):
    # not statistics.median: statistics imports fractions, which rootmat imports
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def to_reference(seconds, unit_times):
    return seconds * REF_UNIT_S / _median(unit_times)


class SpeedProbe:
    """Times one unit every PROBE_INTERVAL_S while the work runs.

    A timer signal interrupts the work, so the unit runs on the same core,
    in the same process, at the same moment.  It costs about 1.3% of the run.
    """

    def __init__(self):
        self.samples = []  # (start, seconds)

    def _sample(self, signum, frame):
        self.samples.append((perf_counter(), unit_seconds()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def unit_times(self, start, end):
        return [s for t, s in self.samples if start <= t < end]

    def reference_seconds(self, start, end, fallback):
        """Work in [start, end) at the reference speed, probe time taken out.

        Scales by the samples taken in the interval, or by `fallback` (the
        unit times of a longer interval) when it holds fewer than
        MIN_SAMPLES.
        """
        inside = self.unit_times(start, end)
        work = end - start - sum(inside)
        return to_reference(work, inside if len(inside) >= MIN_SAMPLES else fallback)
