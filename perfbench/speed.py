"""Timings in reference seconds: wall time scaled by the host's speed.

On a shared host the speed of a fixed computation drifts by up to 1.8x within
seconds, and by 20% or more between minutes, because other tenants contend
for the same cores.  CPU time tracks wall time there, so neither cancels the
drift.  Instead a pass samples the host's speed while it runs: a timer signal
interrupts it every PERIOD_S seconds, and the handler times PROBE, a fixed
pure-Python computation that does not touch fitt.  Speed at a sample is
REF_PROBE_S over the probe's time.  A stretch of work that took `t` seconds,
less the probes inside it, at mean speed `v` counts as `t * v` reference
seconds: the time it would have taken at the reference speed.

A change to fitt moves reference seconds exactly as it moves wall seconds;
only the host's drift cancels.  Probe time is not counted.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

# Probe time at the reference speed: the median probe on a calm 2-CPU Xeon
# container with Python 3.11, so a reference second is a calm second there.
REF_PROBE_S = 0.0025
PERIOD_S = 0.1  # about 2.5% of a pass goes to probes
BRACKET = 5  # probes on each side of a stretch too short to sample inside


def _probe() -> int:
    """Buchberger-like pure-Python work: merge small exponent tuples into
    lcms, rank them and keep them in a dict."""
    monos = [((k % 3, 1 + k % 4), (3 + k % 5, 2)) for k in range(16)]
    best = None
    seen: dict = {}
    for rnd in range(10):
        for i, a in enumerate(monos):
            for b in monos[i + 1 :]:
                lcm = tuple(sorted(dict(a + b).items()))
                rank = (sum(e for _, e in lcm) + rnd, i)
                if best is None or rank < best:
                    best = rank
                seen[lcm] = seen.get(lcm, 0) + 1
    return len(seen)


def probe() -> float:
    """Seconds one probe takes now."""
    start = time.perf_counter()
    _probe()
    return time.perf_counter() - start


class Sampler:
    """Times a probe every PERIOD_S seconds while installed.  `samples`
    holds (end time, probe seconds) pairs on the perf_counter clock."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a probe outlived the period: skip, do not nest
            return
        self._busy = True
        try:
            seconds = probe()
            self.samples.append((time.perf_counter(), seconds))
        finally:
            self._busy = False

    @contextmanager
    def installed(self):
        probe()  # the first call of a fresh interpreter runs slower
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, start: float, end: float) -> list[float]:
        """Probe seconds of the samples taken inside [start, end]."""
        return [s for t, s in self.samples if start <= t <= end]

    def reference_seconds(self, start: float, end: float, fallback: float) -> float:
        """Reference seconds of the stretch [start, end].  A stretch with no
        sample inside it counts at the `fallback` speed."""
        probes = self.within(start, end)
        return (end - start - sum(probes)) * (speed(probes) if probes else fallback)

    def speed(self) -> float:
        return speed([s for _, s in self.samples])


def speed(probes: list[float]) -> float:
    """Mean host speed over probes, relative to the reference."""
    return statistics.fmean(REF_PROBE_S / s for s in probes)


def bracket() -> list[float]:
    """BRACKET probe times, after a warm-up probe."""
    probe()
    return [probe() for _ in range(BRACKET)]
