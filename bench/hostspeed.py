"""Host-speed reference for the benchmark's timings.

The benchmark runs on a shared 2-core VM whose speed swings by 25-40%
over tens of seconds as other tenants come and go; CPU time swings with
wall time, so it gives no shelter.  A 300-second log of the same operations
read 0.26-0.36 IQR/median over 20-45 s windows, while the same operations
timed against a fixed reference kernel, run between and during them, read
0.02-0.04.

So every end-to-end time is reported at *reference speed*: an operation's
measured seconds times ``REF_S`` over the kernel's time measured around it.
The kernel does the kind of work the package does (Fraction arithmetic,
big-integer products, small lists and dicts) and lives here, outside the
package, so no change under ``src/`` can move it.  ``REF_S`` is the kernel's
usual time on the host the benchmark was built on (2-core x86-64 VM,
Python 3.11), so figures read as seconds on that host at its usual speed.

Nothing here starts a thread or a process: samples taken during an
operation come from a SIGALRM timer whose handler runs the kernel in the
main thread, and the time the handler takes is subtracted from the
operation.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

#: Usual seconds of one kernel() call on the reference host.
REF_S = 0.0025
#: Seconds between samples taken by the timer during a pass.  The host's
#: speed moves within a second, so dense short samples track it better than
#: sparse long ones; at this rate the samples take about 5% of a pass.
INTERVAL_S = 0.05
#: An operation is scaled by the samples from this long before it starts to
#: this long after it ends, so a short operation still gets about ten.
WINDOW_S = 0.25


def kernel() -> int:
    row = [Fraction(1)] * 32
    big = 3**400
    table: dict[int, int] = {}
    for r in range(10):
        row = [a + b * Fraction(r + 1, 7) for a, b in zip(row, row[1:] + row[:1])]
        big = big * 12345678901 // 97
        table[r % 7] = table.get(r % 7, 0) + big % 1000
    return len(row) + len(table)


def time_kernel() -> float:
    """Seconds of one kernel() call, with the collector off so the size of
    the program's heap does not enter the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, kernel_times: list[float]) -> float:
    """seconds measured while the kernel took kernel_times, at reference speed.

    The mean, not the median: an operation's time adds up the host's
    slowness over its whole span, and so does the mean of evenly spaced
    samples."""
    return seconds * REF_S / statistics.fmean(kernel_times)


class Sampler:
    """Kernel samples through a pass: on demand, and every INTERVAL_S from a
    SIGALRM timer while active.  ``stolen`` is the time the timer's handler
    has taken, which callers subtract from what they time."""

    def __init__(self) -> None:
        self.times: list[float] = []  # sample start, in perf_counter seconds
        self.seconds: list[float] = []
        self.stolen = 0.0
        time_kernel()  # warm-up, not recorded

    def sample(self) -> None:
        start = perf_counter()
        self.seconds.append(time_kernel())
        self.times.append(start)

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.sample()
        self.stolen += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def around(self, start: float, end: float) -> list[float]:
        """Kernel times of the samples within WINDOW_S of [start, end], and at
        least those of the nearest sample on each side of it."""
        lo = min(bisect_left(self.times, start - WINDOW_S), bisect_left(self.times, start) - 1)
        hi = max(bisect_right(self.times, end + WINDOW_S), bisect_right(self.times, end) + 1)
        return self.seconds[max(lo, 0) : hi]
