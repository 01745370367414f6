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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def biased_coin(n: int, epsilon: float, seed: int) -> BitSequence:
    """n i.i.d. bits with P(0) = 1/2 + epsilon; identical output per (n, epsilon, seed)."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must be in [0, 1/2], got {epsilon}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    u = np.random.default_rng(seed).random(n)
    return BitSequence.from_array(u >= 0.5 + epsilon)


def synthetic_rr(spec: SourceSpec) -> RRSeries:
    """Sine-modulated RR series with uniform noise, all records annotated normal.

    interval_i = BASELINE + AMPLITUDE * sin(2*pi*i/PERIOD) + U(-NOISE, +NOISE)
    for beats i = 1..n, the noise drawn from default_rng(seed); timestamps
    accumulate from midnight at millisecond precision.
    """
    rng = np.random.default_rng(spec.seed)
    i = np.arange(1, spec.n + 1)
    # Each column is built in one buffer, step by step in the order of the
    # formula, so the rounding and the result are the formula's own.
    intervals = np.multiply(i, 2 * np.pi)
    intervals /= PERIOD
    np.sin(intervals, out=intervals)
    intervals *= AMPLITUDE
    intervals += BASELINE
    intervals += rng.uniform(-NOISE, NOISE, spec.n)
    # The millisecond counts are integral floats below 2**53, so the float
    # remainder is exact and equals the integer one.
    time = np.cumsum(intervals)
    time *= 1000
    np.rint(time, out=time)
    np.mod(time, _MS_PER_DAY, out=time)
    time /= 1000
    return RRSeries._from_columns(
        i, time, intervals,
        np.full(spec.n, NORMAL_ANNOTATION), np.zeros(spec.n, dtype=bool))
