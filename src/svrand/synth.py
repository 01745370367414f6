"""Seeded synthetic sources: biased coin bits and sine-plus-noise RR series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from svrand.bitseq import BitSequence
from svrand.ingest import _MS_PER_DAY, NORMAL_ANNOTATION, RRSeries

__all__ = ["SourceSpec", "biased_coin", "synthetic_rr"]

# The fixed shape of every synthetic series: mean interval and sine amplitude
# (seconds), sine period (beats) and uniform noise half-width (seconds).
BASELINE = 0.9
AMPLITUDE = 0.05
PERIOD = 20.0
NOISE = 0.01


@dataclass(frozen=True)
class SourceSpec:
    """A deterministic synthetic RR series: n >= 1 beats drawn from seed."""

    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


def biased_coin(n: int, epsilon: float, seed: int) -> BitSequence:
    """n i.i.d. bits with P(0) = 1/2 + epsilon; identical output per (n, epsilon, seed)."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must be in [0, 1/2], got {epsilon}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    u = np.random.default_rng(seed).random(n)
    return BitSequence.from_array((u >= 0.5 + epsilon).astype(np.int64))


def synthetic_rr(spec: SourceSpec) -> RRSeries:
    """Sine-modulated RR series with uniform noise, all records annotated normal.

    interval_i = BASELINE + AMPLITUDE * sin(2*pi*i/PERIOD) + U(-NOISE, +NOISE)
    for beats i = 1..n, the noise drawn from default_rng(seed); timestamps
    accumulate from midnight at millisecond precision.
    """
    rng = np.random.default_rng(spec.seed)
    i = np.arange(1, spec.n + 1)
    intervals = (BASELINE + AMPLITUDE * np.sin(2 * np.pi * i / PERIOD)
                 + rng.uniform(-NOISE, NOISE, spec.n))
    times_ms = np.round(np.cumsum(intervals) * 1000).astype(np.int64) % _MS_PER_DAY
    return RRSeries._from_columns(
        i, times_ms / 1000.0, intervals,
        np.full(spec.n, NORMAL_ANNOTATION), np.zeros(spec.n, dtype=bool))
