"""Machine-speed calibration of the benchmark's times.

The benchmark shares its host with other machines' work, and the
host's speed for this process drifts by up to 2x over minutes. Raw
wall times then differ more between two runs of the same code than any
change the benchmark must detect.

So while a phase is measured, a timer signal interrupts the process
every ``PERIOD_S`` of wall time and times a short piece of reference
work that does not touch the program, with the garbage collector
paused. The time spent sampling is taken out of every timed section
(:meth:`Calibration.clock`). Set-up is timed in child processes, which
share the host's cores with this one, so it is calibrated by bursts of
samples just before and after each child instead. A section's
*slowdown* is the mean reference time of the samples taken during it,
divided by ``NOMINAL_S``. Dividing a raw time by its slowdown gives
seconds on this host when it is quiet, so a drift in host speed
cancels out.

A program change that slowed the reference as well, for example by
leaving a busy thread behind, would be partly hidden by the scaling.
The report lines print the raw values beside the scaled ones.
"""

from __future__ import annotations

import gc
import random
import signal
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

#: Wall time between two samples.
PERIOD_S = 0.025

#: Size of the reference work (about 0.4 ms on a quiet host).
REFERENCE_NODES = 128
REFERENCE_SLOTS = 6

#: Samples per :meth:`Calibration.burst`, about 8 ms on a quiet host.
BURST = 20

#: Mean reference time on a quiet host (2-core VM, Python 3.11).  It
#: fixes the unit only; comparisons between runs do not depend on it.
NOMINAL_S = 0.0004


def reference() -> float:
    """Seconds for one pass of the reference work.

    Its operation mix resembles the exact engine's: seeded draws, dict
    grouping by channel, list scans.  Of the references tried, it
    followed the workloads' own slowdown most closely.
    """
    start = perf_counter()
    rng = random.Random(12345)
    informed = [False] * REFERENCE_NODES
    informed[0] = True
    for _ in range(REFERENCE_SLOTS):
        groups: dict[int, list[int]] = {}
        for node in range(REFERENCE_NODES):
            groups.setdefault(rng.randrange(16), []).append(node)
        for channel in sorted(groups):
            members = groups[channel]
            if sum(informed[m] for m in members) == 1:
                for m in members:
                    informed[m] = True
    return perf_counter() - start


class Calibration:
    """Reference samples taken while :meth:`sampling` is active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent = 0.0

    def clock(self) -> float:
        """``perf_counter`` minus the time spent sampling."""
        return perf_counter() - self._spent

    def _sample(self, signum: int, frame: object) -> None:
        # The program's garbage stays the program's to collect: no
        # collection may start inside a sample and leave the timed span.
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(reference())
        finally:
            if collecting:
                gc.enable()
            self._spent += perf_counter() - start

    def burst(self, count: int = BURST) -> None:
        """Take *count* samples back to back, while nothing else is timed."""
        self.samples.extend(reference() for _ in range(count))

    @contextmanager
    def sampling(self) -> Iterator["Calibration"]:
        """Sample every ``PERIOD_S`` for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, start: int = 0, end: int | None = None) -> float:
        """Mean of ``samples[start:end]`` ÷ ``NOMINAL_S``.

        A window without samples takes the mean of all samples; with no
        samples at all the slowdown is 1.
        """
        window = self.samples[start:end] or self.samples
        if not window:
            return 1.0
        return sum(window) / len(window) / NOMINAL_S
