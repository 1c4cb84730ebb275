"""Host-speed index: how fast this host runs a fixed reference routine now.

The reference box is a 2-vCPU VM on a shared host.  Over minutes its
speed drifts by up to 1.6x (a 1.2 s compress + decompress measured 1.0
to 1.67 times its fastest in 7 s windows), and CPU time drifts as much
as wall time: CPU steal is usually a few percent (it comes in bursts),
so the slowdown is mostly per instruction.  The benchmark therefore times a fixed routine that does not
touch the program, at points where no program code runs, and scales
each timing by

    index = REFERENCE_S / probe time

so a timing reads as it would at the reference speed.  Wall timings use
the probe's wall time, which CPU steal inflates as it inflates the work;
CPU timings use the probe's CPU time, which steal does not.
Interleaving the probe with the work cut the window-to-window spread of
that compress + decompress from 0.147 to 0.063 (coefficient of
variation, 21 windows).  The raw timings and the index are printed
beside the scaled values.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Median probe time on the reference box in a calm period, seconds.
REFERENCE_S = 0.007

_DATA = np.random.default_rng(0).random(100_000)


def _routine() -> tuple[float, float]:
    start, cpu = time.perf_counter(), time.thread_time()
    x = 0
    for i in range(40_000):  # interpreter-bound, like the per-symbol coders
        x = (x * 31 + i) & 0xFFFF
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    np.sort(_DATA)  # and a numpy kernel
    return time.perf_counter() - start, time.thread_time() - cpu


@dataclass(frozen=True)
class Probe:
    """Median wall and CPU seconds of the reference routine."""

    wall_s: float
    cpu_s: float

    @property
    def wall_index(self) -> float:
        """Multiply a wall timing by this to read it at the reference speed."""
        return REFERENCE_S / self.wall_s

    @property
    def cpu_index(self) -> float:
        """The same for CPU time, which CPU steal does not inflate."""
        return REFERENCE_S / self.cpu_s


def measure(samples: int = 15) -> Probe:
    """Run the reference routine ``samples`` times; return the medians."""
    runs = [_routine() for _ in range(samples)]
    return Probe(statistics.median(w for w, _ in runs), statistics.median(c for _, c in runs))


def median_probe(probes) -> Probe:
    """The medians of several probes' readings."""
    probes = list(probes)
    return Probe(
        statistics.median(p.wall_s for p in probes), statistics.median(p.cpu_s for p in probes)
    )


def between(a: Probe, b: Probe) -> Probe:
    """The reading for work done between probes ``a`` and ``b``."""
    return Probe((a.wall_s + b.wall_s) / 2, (a.cpu_s + b.cpu_s) / 2)
