"""Machine-speed probe for steady timings on a shared machine.

On a machine shared with other jobs, the same pure-Python work runs up
to a quarter slower or faster from one minute to the next, which is
more than the bounds the benchmark fixes. The probe runs a fixed
calibration loop, which does not touch nhmorse, between the timed
units, about one part in ten of the time, and scales every unit time
by REFERENCE_S over the mean calibration time measured within
WINDOW_S of that unit. A unit slowed by the machine is slowed in the
same proportion as the calibration around it, so the scaled times
repeat from run to run while a change to the program still shows in
full. Reported times are therefore seconds at the reference speed,
where one calibration loop takes exactly REFERENCE_S; the raw times are
printed beside them.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 1e-3
WINDOW_S = 0.5
SHARE = 0.1


def calibration_loop() -> complex:
    """Fixed complex-arithmetic work in the style of a series kernel."""
    term = 1.0 + 0.0j
    total = 0.0j
    for n in range(3000):
        term *= (0.3 + 0.1j + n) / (1.7 + n) * 0.9 / (n + 1)
        total += term
        if abs(term) < 1e-300:
            term = 1.0 + 0.0j
    return total


class SpeedProbe:
    """Calibration samples and the timed spans they scale."""

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoint of each calibration sample
        self.took: list[float] = []
        self.calibrated = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            calibration_loop()
            t1 = time.perf_counter()
            self.at.append(0.5 * (t0 + t1))
            self.took.append(t1 - t0)
            self.calibrated += t1 - t0

    def keep_up(self, measured: float) -> None:
        """Sample until calibration time is SHARE of `measured` seconds."""
        while self.calibrated < SHARE * measured or not self.took:
            self.sample()

    def scale(self, mid: np.ndarray, took: np.ndarray) -> np.ndarray:
        """REFERENCE_S over the mean calibration time near each span.

        A span's neighbourhood is WINDOW_S, or its own length if longer,
        on each side of its midpoint; a span with no sample there uses
        the first sample after it (or the last sample).
        """
        at = np.asarray(self.at)
        csum = np.concatenate([[0.0], np.cumsum(self.took)])
        half = np.maximum(WINDOW_S, took)
        lo = np.searchsorted(at, mid - half)
        hi = np.searchsorted(at, mid + half, side="right")
        after = np.minimum(np.searchsorted(at, mid), len(at) - 1)
        empty = hi == lo
        lo = np.where(empty, after, lo)
        hi = np.where(empty, after + 1, hi)
        return REFERENCE_S / ((csum[hi] - csum[lo]) / (hi - lo))
