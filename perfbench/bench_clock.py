"""Wall times scaled to a fixed machine speed.

On a shared host the speed of a core drifts: the same deterministic solve
was seen to take anywhere from 180 to 320 ms within one minute, with CPU
time tracking wall time (no preemption, so process time does not help).
A fixed reference computation drifts in lockstep, so the benchmark times a
reference right before and right after each measured piece of work and
scales the work's wall time by REFERENCE_NOMINAL_MS over the mean of the
two reference times. The result reads as milliseconds on a machine where
the reference takes REFERENCE_NOMINAL_MS, which is about its time on an
unloaded core of the 2-vCPU Xeon container the baseline was taken on.

The reference uses only numpy, never cpdhr, so no change to the program
can change it. It mixes the shapes the workloads spend their time on:
many small complex einsum and pinv calls (Python overhead bound), one
large einsum (bandwidth bound) and float text formatting and parsing.
"""

import time

import numpy as np

REFERENCE_NOMINAL_MS = 17.0
SMALL_REPEATS = 120
TEXT_VALUES = 1500


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)

        def crandn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._small = (crandn(10, 10, 15), [crandn(d, 3) for d in (10, 10, 15)])
        self._large = (crandn(32, 32, 64), [crandn(d, 6) for d in (32, 32, 64)])
        self._values = rng.standard_normal(TEXT_VALUES)

    def _reference(self):
        t, (u0, u1, u2) = self._small
        for _ in range(SMALL_REPEATS):
            m = np.einsum("ijk,jr,kr->ir", t, u1, u2)
            np.einsum("ir,jr,kr->ijk", u0, u1, u2)
            np.linalg.pinv(m.conj().T @ m, hermitian=True)
        big, (_, v1, v2) = self._large
        np.einsum("ijk,jr,kr->ir", big, v1, v2)
        text = "\n".join(format(x, "#.17g") for x in self._values)
        sum(float(x) for x in text.split())

    def reference_ms(self):
        t0 = time.perf_counter()
        self._reference()
        return (time.perf_counter() - t0) * 1e3

    def scale(self, before_ms, after_ms):
        """Factor that turns a wall time measured between two reference
        timings into a time at nominal speed."""
        return REFERENCE_NOMINAL_MS / (0.5 * (before_ms + after_ms))
