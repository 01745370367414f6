"""Seeded synthetic sources: biased coin bits and sine-plus-noise RR series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from svrand.bitseq import BitSequence
from svrand.ingest import NORMAL_ANNOTATION, RRRecord, RRSeries

__all__ = ["SourceSpec", "biased_coin", "synthetic_rr"]

_MS_PER_DAY = 86_400_000


@dataclass(frozen=True)
class SourceSpec:
    """Parameters of a deterministic synthetic source.

    kind "biased_coin" uses epsilon; kind "synthetic_rr" uses the
    baseline/amplitude/period/noise shape (seconds, seconds, beats, seconds).
    """

    kind: str
    n: int
    seed: int
    epsilon: float = 0.0
    baseline: float = 0.9
    amplitude: float = 0.05
    period: float = 20.0
    noise: float = 0.01

    def __post_init__(self):
        if self.kind not in ("biased_coin", "synthetic_rr"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.kind == "biased_coin":
            if not 0.0 <= self.epsilon <= 0.5:
                raise ValueError(f"epsilon must be in [0, 1/2], got {self.epsilon}")
        else:
            if self.amplitude < 0 or self.noise < 0:
                raise ValueError("amplitude and noise must be >= 0")
            if self.baseline <= self.amplitude + self.noise:
                raise ValueError(
                    f"baseline {self.baseline} must exceed amplitude + noise "
                    f"{self.amplitude + self.noise} to keep intervals positive")
            if self.period <= 0:
                raise ValueError(f"period must be positive, got {self.period}")


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

    interval_i = baseline + amplitude * sin(2*pi*i/period) + U(-noise, +noise),
    timestamps accumulate from midnight at millisecond precision.
    """
    if spec.kind != "synthetic_rr":
        raise ValueError(f"spec kind must be 'synthetic_rr', got {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    i = np.arange(1, spec.n + 1)
    intervals = (spec.baseline
                 + spec.amplitude * np.sin(2 * np.pi * i / spec.period)
                 + rng.uniform(-spec.noise, spec.noise, spec.n))
    times_ms = np.round(np.cumsum(intervals) * 1000).astype(np.int64) % _MS_PER_DAY
    records = tuple(
        RRRecord(index=k + 1, time=times_ms[k] / 1000.0,
                 interval=float(intervals[k]), annotation=NORMAL_ANNOTATION)
        for k in range(spec.n))
    return RRSeries(records)
