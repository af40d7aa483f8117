"""Machine-speed probe: a fixed kernel that never touches zerobounds.

The benchmark runs on shared virtual machines whose single-thread speed
drifts by up to 1.6x, in periods from seconds to minutes. Timing this
frozen kernel throughout a run measures that drift; each operation's
latency is divided by the slow-down the probe saw when it started, and the
set-up time by the run's mean slow-down, so that timings are reported at a
fixed reference probe time (REFERENCE_MS) and the drift cancels out. Changes to the library cannot change the probe. The
kernel mixes what the workloads spend their time on: NumPy arithmetic on
small complex arrays (a Durand-Kerner-style update), Hermitian eigenvalue
solves of 32x32 matrices, and interpreted Python.

On a 2-vCPU VM, the mean block times of tables_small and roots_hard over
30-second windows differed by up to 50% within three minutes; divided by
the probe time measured next to them, by up to 15%. Over six seeded runs per
workload, the quartile spread of p50 fell from up to 0.24 unscaled to
0.04-0.07.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probe time at which normalized timings are expressed; about the median
# probe time on the machine the benchmark was defined on.
REFERENCE_MS = 4.0
# Minimum time between two probe samples during a run.
INTERVAL_S = 0.5


class SpeedProbe:
    """Samples the kernel during a run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._z0 = 1.3 * np.exp(2j * np.pi * np.arange(48) / 48 + 0.4)
        self._coeffs = rng.standard_normal(49) + 1j * rng.standard_normal(49)
        blocks = rng.standard_normal((8, 32, 32)) + 1j * rng.standard_normal((8, 32, 32))
        self._hermitian = [(b + b.conj().T) / 2 for b in blocks]
        self.samples_ms: list[float] = []
        self._last = -float("inf")
        self._kernel()  # warm-up, not recorded

    def _kernel(self) -> None:
        z = self._z0.copy()
        for _ in range(30):
            values = np.zeros_like(z)
            for c in self._coeffs:
                values = values * z + c
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            z = z - 1e-3 * values / diff.prod(axis=1)
        for h in self._hermitian:
            np.linalg.eigvalsh(h)
        total = 0
        for i in range(3000):
            total += i * i

    def sample(self) -> None:
        """Time the kernel three times and record the median."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.samples_ms.append(statistics.median(times) * 1e3)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """sample() if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def slowdown(self) -> float:
        """How much slower than the reference the machine runs now: the mean
        of the last three samples over REFERENCE_MS (2.0 means half speed)."""
        return statistics.fmean(self.samples_ms[-3:]) / REFERENCE_MS
