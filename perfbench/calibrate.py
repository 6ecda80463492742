"""Machine-speed calibration: a fixed load timed next to every op.

The reference machine is a shared 2-vCPU guest whose speed moves between
levels about 1.5-1.8x apart, each level often holding for minutes, i.e. for
whole runs.  No statistic taken inside one run removes such a level.  So
right after each op the benchmark times a fixed load that does not depend on
the package: float formatting in pure Python (as the CSV writer does) and
complex elementwise numpy work (as the kernel tables do).  An op's time at
reference speed is its wall time scaled by ``REF_UNIT_S / unit_s``, where
``unit_s`` is the median time of one calibration unit measured just after
that op.  A change in the package moves the op time and leaves the unit
alone; a change in machine speed moves both.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds of one calibration unit on the reference machine (shared 2-vCPU
#: KVM guest, Intel Xeon, Python 3.11, numpy 2.4, in its slower speed level).
#: Times at reference speed are wall times scaled to this unit.
REF_UNIT_S = 0.020
#: Units per sample, at the least.
MIN_UNITS = 3


class Calibrator:
    """One unit: 3000 floats formatted and joined, and three passes of
    complex exp plus row sums over a 2000 x 40 table (≈20 ms on
    the reference machine)."""

    def __init__(self):
        rng = np.random.default_rng(0)  # fixed: the load never depends on the seed
        self.floats = [float(x) for x in rng.random(3000)]
        self.table = rng.random((2000, 40)) + 1j * rng.random((2000, 40))

    def unit(self) -> float:
        t0 = time.perf_counter()
        ",".join(format(x, ".17g") for x in self.floats)
        for _ in range(3):
            phase = np.exp(0.3j * self.table)
            (phase * phase.conj()).real.sum(axis=1)
        return time.perf_counter() - t0

    def sample(self, min_seconds: float = 0.0) -> float:
        """Median unit seconds over at least ``MIN_UNITS`` units and
        ``min_seconds`` of calibration."""
        units = []
        spent = 0.0
        while len(units) < MIN_UNITS or spent < min_seconds:
            units.append(self.unit())
            spent += units[-1]
        return statistics.median(units)


def at_reference_speed(seconds: float, unit_s: float) -> float:
    """``seconds`` of wall time scaled to the reference machine's speed."""
    return seconds * REF_UNIT_S / unit_s
