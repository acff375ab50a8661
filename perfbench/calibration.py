"""Host-speed calibration: scale measured times to a fixed reference speed.

On a shared host the CPU speed one process gets drifts by 20-40% over tens
of seconds to minutes, as other tenants come and go.  That drift is far
larger than the changes the benchmark has to show, and a run is too short
to average it out.  So the benchmark times a fixed piece of pure-Python
work (dict updates keyed by small tuples, the kind of work bentice's
polynomials do) in short bursts between ops, and reports each op's time
multiplied by REFERENCE_S / (the mean burst time around the op).  The
result is in seconds: the time the op takes on a host where one
`calibration_work()` takes REFERENCE_S, which is typical of a 2-vCPU Intel
Xeon VM.  Raw seconds are printed beside every scaled figure.  setup_s is
not scaled: it is measured in child processes, which may run on another
CPU than the bursts.

The calibration work runs no bentice code, so a change to bentice moves
the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

# Seconds one calibration_work() takes at the reference speed.
REFERENCE_S = 0.0085
BURST_REPEATS = 4
# A burst runs before the next op once this much time has passed since the last.
BURST_EVERY_S = 0.5
# An op is scaled by the bursts from this long before it to this long after it.
WINDOW_PAD_S = 5.0


def calibration_work() -> int:
    table = {}
    for i in range(20000):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + i * i
    return len(table)


def burst() -> float:
    """Mean seconds of one calibration_work() over a short burst."""
    started = time.perf_counter()
    for _ in range(BURST_REPEATS):
        calibration_work()
    return (time.perf_counter() - started) / BURST_REPEATS


class HostClock:
    """Calibration bursts between timed intervals, and the scale of each.

    Call `tick()` before each timed interval and `close()` after the last;
    `scale(t0, t1)` is REFERENCE_S over the mean of the bursts that ran
    within WINDOW_PAD_S of the interval [t0, t1] (perf_counter times).
    """

    def __init__(self):
        self.bursts = []  # (perf_counter at the burst's end, seconds)
        self._burst()

    def _burst(self):
        seconds = burst()
        self.bursts.append((time.perf_counter(), seconds))

    def tick(self):
        if time.perf_counter() - self.bursts[-1][0] >= BURST_EVERY_S:
            self._burst()

    def close(self):
        self._burst()

    def scale(self, t0: float, t1: float) -> float:
        near = [s for t, s in self.bursts if t0 - WINDOW_PAD_S <= t <= t1 + WINDOW_PAD_S]
        # tick() leaves the last burst under BURST_EVERY_S before t0, so one qualifies.
        return REFERENCE_S / statistics.mean(near)
