"""Reference kernel: a fixed piece of work, independent of heatent, timed
between requests to track the host's speed while the benchmark runs.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to about 2x within minutes.  The kernel mixes the kinds of work heatent
does: scalar ``math`` calls in a Python loop (the quadrature integrands),
small 2-D FFTs (the spectral transforms), short NumPy expressions, and
passes over an array too large for the core's own caches.  Measured over
2.5-3.5 minutes of repeated fixed requests of each workload: without the
array passes, the requests' time grew only as the kernel time to the power
0.8-0.9; with array passes of 0.5-1x the other parts' time (this kernel
has about 0.5x) the power was 1.0-1.1, and the requests' time over the
kernel's had a coefficient of variation of 0.07-0.08 where the raw time
had 0.15-0.20.  It never imports heatent, so no change to the program can
change it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median wall and CPU time of one kernel call on the machine the benchmark
# was sized on (2 vCPUs of a shared x86-64 host, CPython 3.11, numpy 2.4).
# Normalised times are reported in milliseconds at this speed.
NOMINAL_WALL_S = 0.0025
NOMINAL_CPU_S = 0.0025
# Speed at request i: median of the kernel samples taken after requests
# i-WINDOW .. i+WINDOW.  After each request the kernel runs for about SHARE
# of the request's time (at most MAX_CALLS calls), so long requests are
# sampled as densely as short ones.
WINDOW = 4
SHARE = 0.04
MAX_CALLS = 100

_FIELD = np.random.default_rng(0).normal(size=(32, 32))
_LINE = np.linspace(0.0, 1.0, 50)
_ARRAY = np.random.default_rng(1).normal(size=32768)  # 256 KiB


def kernel() -> float:
    s = 0.0
    for i in range(2000):
        x = i * 1e-3
        s += math.exp(-x * x) * math.log1p(x) / (1.0 + math.sinh(0.01 * x))
    for _ in range(10):
        s += float(np.fft.irfft2(np.fft.rfft2(_FIELD), s=_FIELD.shape)[0, 0])
    y = _LINE
    for _ in range(60):
        y = np.sqrt(y * y + 1.0) - 0.5
    z = _ARRAY
    for _ in range(7):
        z = np.sqrt(z * z + 1.0) - 0.5
    return s + float(y[0]) + float(z[0])


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel call."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0, time.process_time() - c0


def samples_after(request_seconds: float) -> list[tuple[float, float]]:
    """Kernel samples taken after a request: enough calls to last about
    SHARE of the request's time, at least one."""
    calls = max(1, min(MAX_CALLS, round(SHARE * request_seconds / NOMINAL_WALL_S)))
    return [sample() for _ in range(calls)]


def slowdowns(per_request: list, nominal: float) -> list[float]:
    """Per-request slowdown against the nominal speed: the median of the
    samples taken after the requests within WINDOW positions, over
    ``nominal``.  ``per_request`` holds one list of kernel times per
    request."""
    n = len(per_request)
    return [statistics.median(t for ts in per_request[max(0, i - WINDOW):i + WINDOW + 1]
                              for t in ts) / nominal
            for i in range(n)]
