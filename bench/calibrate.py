"""Host-speed calibration of the benchmark's timings.

The shared host this benchmark runs on changes speed by a quarter or
more in spells of tens of seconds, longer than a run can average over,
and most work in the process slows with it.  So between the timed calls
the benchmark runs a fixed reference burst that does not touch lpk, for
a fixed share of the timed time, and reports each call's time scaled by
``REF_SECONDS`` over the median of the bursts nearest to it.  A reported
time is thus the call's seconds at the host speed where one burst takes
``REF_SECONDS``; a change to lpk moves it as it moves raw time, while a
slow spell of the host moves call and bursts alike and largely cancels.
Not all code slows alike; README.md (Timing) gives the measured limits.
Raw seconds stay in the report line.

``REF_SECONDS``, the burst and the share are part of the benchmark's
definition and must not change between the commits it compares.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# What one burst takes on the host the baseline in README.md comes from.
REF_SECONDS = 0.0025
# Bursts take this share of the timed time, spread between the calls.
SHARE = 0.05
# A call is calibrated by the median of this many bursts nearest to it.
NEIGHBOURS = 16

_rng = np.random.default_rng(0)
_C = _rng.standard_normal((160, 64)) + 1j * _rng.standard_normal((160, 64))
_F = _rng.standard_normal((8, 64, 64)) + 0j


def burst() -> float:
    """Seconds taken by a fixed piece of LAPACK, FFT and matrix work.

    The kernels and array sizes are those lpk spends its time in on the
    2D scene: an SVD of a lifted matrix, 8-coil 64x64 FFTs and a Gram
    product.  Pure interpreter work makes a worse reference: it slows
    in the host's slow spells by about twice as much as any lpk call.
    """
    t0 = time.perf_counter()
    np.linalg.svd(_C, compute_uv=False)
    np.fft.fft2(_F)
    np.abs(_C.conj().T @ _C).sum()
    return time.perf_counter() - t0


class Reference:
    """Bursts run between timed calls, and the calibration they give."""

    def __init__(self, warmup: int = 3):
        for _ in range(warmup):
            burst()
        self.at: list[float] = []  # midpoint of each burst, perf_counter seconds
        self.took: list[float] = []
        self.spent = 0.0
        self.timed = 0.0

    def after(self, seconds: float) -> None:
        """Account a timed call; run bursts until they hold their share."""
        self.timed += seconds
        while self.spent < SHARE * self.timed:
            t0 = time.perf_counter()
            took = burst()
            self.at.append(t0 + took / 2.0)
            self.took.append(took)
            self.spent += took

    def factor(self, t0: float, t1: float) -> float:
        """``REF_SECONDS`` over the median burst nearest to ``[t0, t1]``."""
        if not self.at:
            return 1.0
        mid = (t0 + t1) / 2.0
        at = np.asarray(self.at)
        nearest = np.argsort(np.abs(at - mid), kind="stable")[:NEIGHBOURS]
        return REF_SECONDS / statistics.median(self.took[i] for i in nearest)
