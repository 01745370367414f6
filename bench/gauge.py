"""A speed gauge: fixed kernels, timed between measured operations.

The reference machine is shared, and its speed moves in phases of one to
three minutes: the same round of work took from 0.8 to 1.2 of its median
time, and 1.9 times as long at worst.  CPU time moves with it, and a
phase lasts longer than a run, so no statistic taken within a run removes
it.  The gauge is timed just before and just after each measured process
and set-up, and the time measured is scaled by the gauge's reference time
over the mean of the two readings: it is reported in reference seconds, as
if the machine ran at its usual speed.  A change to svrand moves a scaled
time as much as the plain one; the machine's phase moves both the work and
the gauge.

The gauge times the kinds of work a workload does, since the machine's
phases slow them unequally: `text`, pure-Python parsing of Holter-like
lines, and `array`, numpy passes over a few MiB.  Their inputs are fixed,
so every reading times the same work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Each part's median time on the reference machine (see README.md).
REFERENCE_S = {"text": 0.010, "array": 0.0085}
# One reading is the median of this many timings, so that a single
# interruption does not move it.
REPEATS = 5


class Gauge:
    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self.reference_s = sum(REFERENCE_S[p] for p in parts)
        rng = np.random.default_rng(0)
        self.lines = [f"{i}\t03:{i // 60 % 60:02d}:{i % 60:02d}.{i % 1000:03d}\t0.{800 + i % 97}\tN"
                      for i in range(20000)]
        self.values = rng.random(1 << 20)
        self.keys = rng.integers(0, 1 << 16, 1 << 20)
        self.readings: list[float] = []

    def _text(self) -> None:
        total = 0.0
        for line in self.lines:
            index, _, interval, _ = line.split("\t")
            total += int(index) + float(interval)

    def _array(self) -> None:
        np.cumsum(self.values)
        np.bincount(self.keys, minlength=1 << 16)
        np.sort(self.keys[:200000])

    def _time(self) -> float:
        start = time.perf_counter()
        for part in self.parts:
            getattr(self, "_" + part)()
        return time.perf_counter() - start

    def read(self) -> float:
        reading = statistics.median(self._time() for _ in range(REPEATS))
        self.readings.append(reading)
        return reading

    def bracket(self, run) -> dict:
        """Call `run` between two readings.

        `run` returns a dict whose `wall` is the seconds it measured; the
        same time in reference seconds is added as `scaled`.
        """
        before = self.read()
        result = run()
        result["scaled"] = result["wall"] * self.reference_s / ((before + self.read()) / 2)
        return result
