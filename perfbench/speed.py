"""Reference-speed probe, for times that do not drift with the CPU.

On a shared machine the CPU's speed drifts, in spells lasting from seconds
to minutes (RATIONALE.md, "Observations").  Repeated passes of one
workload varied with a coefficient of variation of 11-19%, and a median
over a run cannot remove a slow spell that covers the whole run.  So every
worker interrupts itself every ``INTERVAL_S`` with a timer signal and
times a small fixed kernel on the same thread, on the same core and at the
same moment as the work it interrupts.  The mean kernel rate over an
interval measures how fast the CPU ran during it, and

    reference seconds = seconds * mean kernel rate / REFERENCE_RATE

is the time the interval would have taken at ``REFERENCE_RATE``.  Over 18
to 60 repeated passes of each workload the kernel rate ranged over 2.3x,
while reference seconds varied with a coefficient of variation of 2-3%.
The kernel multiplies 3x3 matrices over Z/8 as tuples, the kind of work
treeact does; a kernel of dict inserts tracked the drift less closely.  It
is the benchmark's own code, so a change to treeact cannot change it.  It
costs about 2.5% of each interval, spent inside whatever it interrupts.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.02
# kernels per second at the reference speed: an arbitrary scale, set near
# the fastest mean rate seen on the 2-CPU machine the benchmark was written
# on, so that reference seconds read close to that machine's best seconds
REFERENCE_RATE = 2500.0


def kernel() -> int:
    a = (1, 2, 3, 4, 5, 6, 7, 8, 10)
    b = (3, 1, 4, 1, 5, 9, 2, 6, 5)
    seen = set()
    for _ in range(60):
        a = tuple(
            sum(a[3 * i + k] * b[3 * k + j] for k in range(3)) % 8
            for i in range(3) for j in range(3)
        )
        seen.add(a)
    return len(seen)


def _timed_kernel() -> float:
    # no collection inside the kernel: its cost depends on the heap the
    # interrupted work has built, not on the CPU's speed
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return 1.0 / (time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the kernel rate every ``INTERVAL_S`` while started."""

    def __init__(self) -> None:
        self.rates: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        self.rates.append(_timed_kernel())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        return len(self.rates)

    def factor(self, since: int, until: int | None = None) -> float:
        """Kernel rate over samples [since, until) relative to the reference;
        an interval too short to hold a sample is measured on the spot."""
        rates = self.rates[since:until]
        if not rates:
            rates = [_timed_kernel()]
        return statistics.fmean(rates) / REFERENCE_RATE
