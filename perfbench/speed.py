"""Times at a fixed host speed.

The shared 2-core VM the benchmark was built on flips between two speeds
about 2x apart every few seconds, on both cores, and every kind of code
slows alike. A fixed probe computation, timed right before a block (an op,
or a set-up), every INTERVAL_S during it (from a SIGALRM handler) and right
after it, tracks those flips. The block's time at the fixed speed is the
integral of NOMINAL_MS / probe time over its wall time, taken as its wall
time (less the time spent in the handler) times the mean of
NOMINAL_MS / probe time over the samples.

The probe is pure Python, so that importing this module before a set-up
does not import numpy ahead of the set-up being timed.
"""

import contextlib
import fractions
import signal
import statistics
import time

INTERVAL_S = 0.05
NOMINAL_MS = 0.35  # between the probe's two modes (0.24, 0.46 ms) on the 2-core VM


def probe():
    """Fixed work of the kinds srgo's ops do: Fraction arithmetic, float
    updates and dict updates (about half a millisecond)."""
    total = fractions.Fraction(0)
    for i in range(1, 40):
        total += fractions.Fraction(1, i) * fractions.Fraction(i + 1, 7)
    a = [float(i) for i in range(50)]
    for _ in range(8):
        a = [x * 0.5 + 1.0 for x in a]
    counts = {}
    for i in range(300):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total, a, counts


def probe_ms():
    start = time.perf_counter()
    probe()
    return (time.perf_counter() - start) * 1e3


class Measurement:
    """Wall time of a block (ms, probes excluded) and the probe samples."""

    def __init__(self):
        self.wall_ms = 0.0
        self.samples_ms = []

    @property
    def scaled_ms(self):
        """The wall time at the host speed where probe() takes NOMINAL_MS."""
        return self.wall_ms * statistics.fmean(
            NOMINAL_MS / s for s in self.samples_ms)


@contextlib.contextmanager
def measure(periodic=True):
    """Time the block, probing the host speed around it and, if
    ``periodic``, every INTERVAL_S inside it."""
    m = Measurement()
    spent = 0.0

    def on_alarm(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        m.samples_ms.append(probe_ms())
        spent += time.perf_counter() - start

    m.samples_ms.append(probe_ms())
    if periodic:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        yield m
    finally:
        if periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
        m.wall_ms = (time.perf_counter() - start - spent) * 1e3
        if periodic:
            signal.signal(signal.SIGALRM, previous)
        m.samples_ms.append(probe_ms())
