"""Drift calibration against a fixed pure-Python reference probe.

On a small shared host the interpreter's speed drifts by tens of percent on
a timescale of about a second, and process CPU time drifts with it, so raw
timings of identical code disagree between runs.  The benchmark therefore
interleaves a fixed probe (int, bit and dict work, no call into edgering)
with the timed work: while a Calibrator is active, a SIGALRM handler takes
a probe every PROBE_INTERVAL_S seconds of wall time, also in the middle of
a long call.  Timed work between two probes is scaled by
PROBE_REF_S / (mean of those two probes), and the probes' own time is taken
out of every timed span.

A calibrated figure reads as "seconds on a machine where one probe kernel
takes PROBE_REF_S", so two runs of the same code agree even when the
machine's speed has moved between them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_REF_S = 0.0005  # nominal time of one probe kernel; the unit of calibration
PROBE_KERNELS = 7  # kernels per probe; the probe reports their median
PROBE_INTERVAL_S = 0.25  # wall time between two probes

_N = 40
_ROWS = tuple((0x9E3779B97F4A7C15 * (v + 1) ^ 0xD1B54A32D192ED03 * (v + 7)) >> 23 & ((1 << _N) - 1) & ~(1 << v)
              for v in range(_N))


def _kernel() -> int:
    """Twice a maximum-cardinality-style visit of a fixed 40-vertex bitmask
    graph: small-int bit operations, list indexing and a dict of positions."""
    acc = 0
    for _ in range(2):
        weights = [0] * _N
        position: dict[int, int] = {}
        unvisited = (1 << _N) - 1
        for step in range(_N):
            best = best_w = -1
            m = unvisited
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m ^= low
                if weights[u] > best_w:
                    best_w = weights[u]
                    best = u
            position[best] = step
            unvisited ^= 1 << best
            m = _ROWS[best] & unvisited
            while m:
                low = m & -m
                weights[low.bit_length() - 1] += 1
                m ^= low
        acc += sum(position[v] * v for v in position)
    return acc


def probe() -> float:
    """Median wall time of PROBE_KERNELS probe kernels, in seconds."""
    times = []
    for _ in range(PROBE_KERNELS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibrator:
    """Probes the machine on a timer and calibrates spans of wall time.

    Use as a context manager around the timed loop.  `now()` reads the
    clock; `calibrate(t0, t1)` returns the (raw, calibrated) seconds of the
    span t0..t1 with the probes inside it cut out, each piece scaled by the
    probes on either side of it.  A span is only calibrated once the probe
    after it has been taken, so spans are kept and resolved after `stop()`.
    `probe_time` is the running total of time spent probing, and
    `probe_time_within(t0, t1)` the time of the probes inside a span, which
    the tracer subtracts from its spans.  The handler only appends to lists,
    so code it interrupts never sees a half-made update.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # probe i ran from starts[i] to ends[i]
        self.ends: list[float] = []
        self.probes: list[float] = []
        self.probe_time = 0.0
        self.cumulative = [0.0]  # cumulative[i]: time of probes 0..i-1
        self._previous = None
        self._take()

    def _take(self) -> None:
        t0 = time.perf_counter()
        p = probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.probes.append(p)
        self.probe_time += t1 - t0
        self.cumulative.append(self.probe_time)

    def _on_alarm(self, signum, frame) -> None:
        self._take()

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    @property
    def factors(self) -> list[float]:
        return [scale(a, b) for a, b in zip(self.probes, self.probes[1:])]

    def probe_time_within(self, t0: float, t1: float) -> float:
        """Seconds of the probes that ran inside t0..t1.

        A probe runs between two bytecodes of the code it interrupts, so it
        lies either wholly inside a span read with perf_counter or outside.
        """
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        return self.cumulative[last] - self.cumulative[first] if last > first else 0.0

    def calibrate(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, calibrated) seconds of t0..t1 without the probes inside it."""
        k = bisect.bisect_right(self.ends, t0) - 1  # last probe that ended before t0
        raw = cal = 0.0
        start = t0
        while True:
            nxt = k + 1
            stop = min(t1, self.starts[nxt])
            piece = stop - start
            raw += piece
            cal += piece * scale(self.probes[k], self.probes[nxt])
            if self.starts[nxt] >= t1:
                return raw, cal
            start = self.ends[nxt]
            k = nxt


def scale(before: float, after: float) -> float:
    """Calibration factor of a span between two probes."""
    return PROBE_REF_S / ((before + after) / 2)
