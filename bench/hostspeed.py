"""Host-speed calibration for the end-to-end timings.

On a shared host the CPU speed a process gets swings by up to 2x over spells
of seconds to minutes (measured on the 2-core reference host: the same
two-restart ``discord_P`` solve took 104-209 ms, with CPU time tracking wall
time, so the slowdown is contention for the core, not waiting).  A run's
median then follows the host, not the program: over 40 s windows the median
of that one solve spread 0.22 (IQR over median).

``Calibrator.slice`` times a fixed kernel that shares no code with
discordium but does the same kind of work (small Hermitian ``eigvalsh``,
matrix products and entropy sums under a Python loop).  The runner times a
slice before and after every op and reports the op's time scaled to the
reference host speed::

    ref_seconds = wall_seconds * REF_SLICE_S / mean(slice before, slice after)

Interleaved this way, the same solve's windowed medians spread 0.016-0.035
instead of 0.25.  A change to the program moves ``wall_seconds`` and leaves
the slices alone, so it moves the scaled time by the same factor.  The
report keeps the raw wall-clock metrics beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one slice takes on the reference host (2-core sandbox, numpy 2.4,
# one BLAS thread) when it is not contended.
REF_SLICE_S = 0.020
_ROUNDS = 150


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        mats = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
        self._mats = [m @ m.conj().T / np.trace(m @ m.conj().T).real for m in mats]
        self.slice()  # warm-up: first-call dispatch costs are not host speed

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(_ROUNDS):
            for m in self._mats:
                w = np.linalg.eigvalsh(m)
                w = w[w > 1e-12]
                acc -= float((w * np.log2(w)).sum())
                acc += float(np.trace(m @ m).real)
        return acc

    def slice(self) -> float:
        """Wall time of one pass of the fixed kernel, in seconds."""
        t = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t


def scale(wall_s: float, slice_before: float, slice_after: float) -> float:
    """``wall_s`` at the reference host speed."""
    return wall_s * REF_SLICE_S * 2 / (slice_before + slice_after)
