"""Machine-speed probe that ``wall_s`` is normalised by.

The machine this benchmark was written on switches between a fast and a
slow state, ~1.6x apart, for anything from under a second to minutes at a
time (load from outside the VM).  Raw body times therefore vary by up to
2x between runs.  Timed right before and after each body, this fixed kernel
slows down by the same factor as the bodies while the state holds, so the
ratio body / probe stays put (see README.md, "Noise on this machine").

The kernel uses no fpmflow code, so no change to fpmflow can move it.  It
cycles FFT round trips through a 16 MiB pool of arrays, which touches
memory beyond the caches as the workloads' snapshot lists do.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time on the reference machine in its fast state (2-vCPU Intel Xeon
# VM at 2.0 GHz); it only sets the scale of wall_s, which then reads as
# seconds at that machine's full speed.
REFERENCE_S = 0.067

_POOL_ARRAYS = 1024
_POINTS = 2048
_ROUND_TRIPS = 1500


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._pool = [rng.random(_POINTS) for _ in range(_POOL_ARRAYS)]
        self._rfft, self._irfft = np.fft.rfft, np.fft.irfft

    def __call__(self) -> float:
        """Seconds one pass of the kernel takes now."""
        start = time.perf_counter()
        acc = 0.0
        for i in range(_ROUND_TRIPS):
            a = self._pool[(i * 7919) % _POOL_ARRAYS]
            acc += float(self._irfft(self._rfft(a) * 1.0001, _POINTS)[0])
        return time.perf_counter() - start
