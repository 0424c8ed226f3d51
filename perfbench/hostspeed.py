"""Host-speed probe for the end-to-end times.

On a shared host the speed of one process drifts by tens of percent over
tens of seconds, with CPU time tracking wall time, so the drift is the
host's (frequency, neighbours on the shared cores and memory bus), not
scheduling.  Fixed kernels are timed between the timed units (each
set-up and each round of trials); their time over a reference time is
the host's slowdown factor, and the benchmark reports each unit's wall
time divided by the mean factor of the probes on either side of it.
Drift shared by the probe and the workload cancels; a change in the
library does not move the probe, which calls numpy only.

Two kernels cover what the workloads spend their time on, and each
workload weights them by its own mix: ``loop`` is a Python loop of small
vector operations (an SGD or SVRG step), ``stream`` passes over a 16 MB
matrix (an anchor gradient at m = 1e5).  Measured over 200 s on a
2-core x86-64 virtual machine, with the weights each workload uses, the quartile
spread of 20-second medians fell from 0.16-0.28 raw to 0.02-0.04.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Kernel times at the reference speed (a 2-core x86-64 virtual machine, numpy 2.4
# with OpenBLAS on one thread); they only fix the scale of the factor.
REFERENCE_S = {"loop": 0.02, "stream": 0.025}


class HostSpeed:
    def __init__(self, mix: dict[str, float]):
        self.mix = mix
        rng = np.random.default_rng(20160301)
        self._rows = rng.standard_normal((2000, 20)) / 5.0
        self._gram = self._rows.T @ self._rows / 2000.0
        self._big = rng.standard_normal((100_000, 20)) if "stream" in self.mix else None

    def _loop(self) -> float:
        w = np.zeros(20)
        acc = 0.0
        for x in self._rows:
            w = w - 0.01 * (x @ w - 0.5) * x
            acc += 0.5 * float(w @ (self._gram @ w)) + math.sqrt(w @ w)
        return acc

    def _stream(self) -> float:
        w = self._rows[0]
        acc = 0.0
        for _ in range(2):
            acc += float((self._big * (self._big @ w)[:, None]).sum(axis=0)[0])
        return acc

    def factor(self) -> float:
        """Weighted probe time over reference time: above 1 when the host is slow."""
        total = 0.0
        for kind, weight in self.mix.items():
            kernel = self._loop if kind == "loop" else self._stream
            start = perf_counter()
            kernel()
            total += weight * (perf_counter() - start) / REFERENCE_S[kind]
        return total
