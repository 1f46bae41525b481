"""Process CPU time rescaled to a fixed reference machine speed.

The benchmark shares a small virtual machine with other tenants, which slow
it in two ways.  The host takes the virtual CPU away for milliseconds at a
time (steal time), which lengthens wall time but not the process's CPU
time.  And the CPU runs slower while it runs, by tens of percent from second
to second, which lengthens both.  A short probe of fixed pure-Python work
(dict, tuple and float operations, like the optimizer's bookkeeping,
``simulate_day`` and ``tvsa``) runs from a SIGALRM handler every
``INTERVAL_S`` seconds and measures the second effect as the work runs.  The
garbage collector is off while the probe runs, so a program that holds more
objects does not make the probe collect them.

The reference clock weights every interval of process CPU time between
probes by ``NOMINAL_S / probe CPU time`` (the median of the last three
probes).  The result is the seconds the same work would take, on one
undisturbed CPU, at the speed the probe runs at its nominal time.  Probe
time itself is excluded from every clock.  The benchmark runs one thread, so
CPU time counts no parallel work; time blocked on I/O is not counted.

The module imports only the standard library, so the meter can start before
numpy and the package are imported.
"""

from __future__ import annotations

import gc
import math
import os
import signal
import statistics
import time
from typing import NamedTuple

INTERVAL_S = 0.02
#: Probe time at the reference speed: the fastest probe seen on an idle,
#: shared 2-core x86 virtual machine at 2.1 GHz.  It only sets the scale of
#: the figures.
NOMINAL_S = 0.00035


def probe() -> float:
    """Fixed interpreter work: dict updates, tuple keys and float math."""
    counts: dict = {}
    total = 0.0
    for i in range(600):
        key = (i % 7, i % 5)
        counts[key] = counts.get(key, 0) + 1
        total += math.floor(i / 7.0) + min(max(i * 0.01, 0.3), 0.7)
    return total


class Reading(NamedTuple):
    """Seconds since ``start``: raw wall time, the reference clock and raw
    process CPU time."""

    raw: float
    ref: float
    cpu: float

    def __add__(self, other: "Reading") -> "Reading":  # type: ignore[override]
        return Reading(*(a + b for a, b in zip(self, other)))

    def __sub__(self, other: "Reading") -> "Reading":
        return Reading(*(a - b for a, b in zip(self, other)))


def seconds_since_process_start() -> float:
    """Wall seconds since the kernel started this process (10 ms ticks);
    0.0 where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


class ReferenceMeter:
    """Raw and reference clocks from ``start()``.

    Only one meter may run per process, since it owns SIGALRM.
    """

    def __init__(self) -> None:
        self._running = False
        self.probes = 0

    def _probe(self) -> None:
        """Time the probe and update the clock's factor."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            probe()
            seconds = time.process_time() - start
        finally:
            if collecting:
                gc.enable()
        self._recent = (self._recent + [seconds])[-3:]
        self._factor = NOMINAL_S / statistics.median(self._recent)

    def start(self) -> None:
        self._recent: list[float] = []
        for _ in range(3):
            self._probe()
        self._probe_wall = self._probe_cpu = 0.0
        self._ref = 0.0
        self._t0 = time.perf_counter()
        self._c0 = self._last = time.process_time()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def _advance(self, cpu_now: float) -> None:
        self._ref += (cpu_now - self._last) * self._factor
        self._last = cpu_now

    def _tick(self, signum, frame) -> None:
        start, cpu_start = time.perf_counter(), time.process_time()
        self._advance(cpu_start)
        self._probe()
        end, cpu_end = time.perf_counter(), time.process_time()
        self._probe_wall += end - start
        self._probe_cpu += cpu_end - cpu_start
        self.probes += 1
        self._last = cpu_end

    def read(self) -> Reading:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            now, cpu_now = time.perf_counter(), time.process_time()
            self._advance(cpu_now)
            return Reading(
                now - self._t0 - self._probe_wall,
                self._ref,
                cpu_now - self._c0 - self._probe_cpu,
            )
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
