"""Calibrated timing.

On a shared VM the same work takes up to a quarter longer in one process
than in the next, while its ratio to a fixed pure-Python kernel timed
alongside it stays within a few percent. In-process durations are
therefore scaled by ``NOMINAL_KERNEL_S`` over the kernel time measured
during and next to them. The kernel never changes and uses no sqlgov code.

Process start-up does not follow the kernel, but it does follow a fresh
interpreter that imports numpy and a fixed set of standard-library
modules: the reference process. Durations of child processes are scaled by
``NOMINAL_PROCESS_S`` over its wall time (see README).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import os
import signal
import statistics
import subprocess
import sys
import time

# Median kernel time on the reference machine (2 vCPU x86-64 VM,
# Python 3.11.7); calibrated figures read as seconds on that machine.
NOMINAL_KERNEL_S = 0.00105
# Median wall time of the reference process on the same machine.
NOMINAL_PROCESS_S = 0.30
PROCESS_EVERY_S = 1.5    # a reference process takes ~0.3 s: one per 1.5 s

_SAMPLE_EVERY_S = 0.01   # at most one sample per 10 ms between ops
_IN_OP_EVERY_S = 0.012   # timer-driven samples while an op runs
_WINDOW = 1              # samples taken on each side of a duration also count
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic, dict updates, string
    building and slicing, the operations the toolkit's hot loops use."""
    x = 12345
    counts: dict[int, int] = {}
    parts = []
    for i in range(2500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 61
        counts[key] = counts.get(key, 0) + 1
        if i % 8 == 0:
            parts.append(str(x)[:4])
    text = "".join(parts)
    return len(text.upper().split("7")) + sum(counts.values())


def time_kernel() -> float:
    """One kernel run, with the collector held off: a collection of the
    program's objects must not be charged to the machine's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rss_kb() -> int:
    """Resident memory of this process now (Linux); 0 where unknown."""
    try:
        with open("/proc/self/statm", "rb") as statm:
            return int(statm.read().split()[1]) * _PAGE_KB
    except (OSError, IndexError, ValueError):
        return 0


_REFERENCE_PROCESS = (
    sys.executable, "-I", "-c",
    "import numpy, argparse, asyncio, csv, dataclasses, decimal, "
    "email.parser, fractions, http.client, json, logging, pathlib, sqlite3, "
    "statistics, typing, unittest, xml.dom.minidom")


def time_process() -> float:
    """Wall time of one reference process, start to exit."""
    t0 = time.perf_counter()
    subprocess.run(_REFERENCE_PROCESS, check=True, capture_output=True,
                   timeout=60)
    return time.perf_counter() - t0


class Clock:
    """Times operations and interleaves reference samples with them: the
    kernel, or for ops that are child processes the reference process.

    On a shared VM machine speed changes within a second, so a long op is
    not well calibrated by samples taken around it. ``in_ops()`` samples the
    kernel from a timer signal while the op runs; the handler's time is
    counted in ``paused`` and taken out of the op's duration. The handler
    and the end of each run also read resident memory into ``peak_rss_kb``.
    """

    def __init__(self, reference=time_kernel, nominal=NOMINAL_KERNEL_S,
                 every_s=_SAMPLE_EVERY_S):
        self.reference, self.nominal, self.every_s = reference, nominal, every_s
        self.samples: list[tuple[float, float]] = []  # (taken at, reference s)
        self.paused = 0.0
        self.peak_rss_kb = 0
        self._last = -1.0

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, self.reference()))
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb())
        self.paused += time.perf_counter() - t0

    @contextlib.contextmanager
    def in_ops(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, _IN_OP_EVERY_S, _IN_OP_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._last >= self.every_s:
            self.samples.append((now, self.reference()))
            self._last = time.perf_counter()

    def factor(self, start: float, end: float) -> float:
        """Nominal over the mean reference time of the samples taken during
        [start, end] and next to it. Samples come at a steady rate, so their
        mean follows the op's average slowdown."""
        if not self.samples:
            self.sample(force=True)
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        window = self.samples[max(0, lo - _WINDOW):hi + _WINDOW]
        return self.nominal / statistics.fmean(k for _, k in window)

    def run(self, fn, in_op_samples: bool = True):
        """Run ``fn()`` once. Returns (its result, start, end, pause), where
        pause is the time the kernel samples took during it."""
        paused = self.paused
        start = time.perf_counter()
        with self.in_ops() if in_op_samples else contextlib.nullcontext():
            out = fn()
        end = time.perf_counter()
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb())
        return out, start, end, self.paused - paused

    def timed(self, fn) -> float:
        """Calibrated seconds of ``fn()``, sampled while it runs."""
        self.sample(force=True)
        _, start, end, pause = self.run(fn)
        self.sample(force=True)
        return (end - start - pause) * self.factor(start, end)
