"""RR-series discretizers and the trend-cutting filter."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from svrand.bitseq import BitSequence
from svrand.ingest import RRSeries

__all__ = [
    "TrendCutPattern",
    "discretize_accel",
    "discretize_rapid",
    "discretize_mono",
    "cut_trends",
]


@dataclass(frozen=True)
class TrendCutPattern:
    """Run lengths removed per iteration: accel consecutive 1s, then decel 0s."""

    accel: int
    decel: int

    def __post_init__(self):
        if self.accel < 1 or self.decel < 1:
            raise ValueError(f"run lengths must be >= 1, got ({self.accel}, {self.decel})")


def discretize_accel(series: RRSeries, eta1: float = 0.0) -> BitSequence:
    """0 where the interval grows by at least eta1 (deceleration), else 1.

    One bit per record from the second onward; the first record has no
    predecessor and produces no bit.
    """
    iv = series.interval
    if iv.size < 2:
        raise ValueError(f"need at least 2 records, got {iv.size}")
    return BitSequence.from_array(np.where(iv[1:] >= iv[:-1] + eta1, 0, 1))


def discretize_rapid(series: RRSeries, eta2: float) -> BitSequence:
    """0 where the interval changes by at least eta2 in either direction, else 1."""
    if eta2 < 0:
        raise ValueError(f"threshold must be >= 0, got {eta2}")
    iv = series.interval
    if iv.size < 2:
        raise ValueError(f"need at least 2 records, got {iv.size}")
    return BitSequence.from_array(np.where(np.abs(np.diff(iv)) >= eta2, 0, 1))


def discretize_mono(series: RRSeries) -> BitSequence:
    """0 where three consecutive intervals are monotone, else 1; length n-2."""
    iv = series.interval
    if iv.size < 3:
        raise ValueError(f"need at least 3 records, got {iv.size}")
    a, b, c = iv[:-2], iv[1:-1], iv[2:]
    mono = ((c >= b) & (b >= a)) | ((c <= b) & (b <= a))
    return BitSequence.from_array(np.where(mono, 0, 1))


def cut_trends(s: BitSequence, pattern: TrendCutPattern) -> BitSequence:
    """Delete alternating acceleration/deceleration windows in one forward pass.

    Repeatedly: find the next window of `pattern.accel` consecutive 1s and
    delete exactly those bits, then from just past it the next window of
    `pattern.decel` consecutive 0s and delete those, until either search
    fails.  The scan only moves forward over original positions, so bits
    brought together by a deletion never form a new run within the pass.
    The output is a subsequence of the input.
    """
    text = s.to_array().tobytes()
    ones = b"\x01" * pattern.accel
    zeros = b"\x00" * pattern.decel
    kept: list[bytes] = []
    pos = 0
    prev_end = 0
    while True:
        start = text.find(ones, pos)
        if start < 0:
            break
        kept.append(text[prev_end:start])
        pos = prev_end = start + pattern.accel
        start = text.find(zeros, pos)
        if start < 0:
            break
        kept.append(text[prev_end:start])
        pos = prev_end = start + pattern.decel
    kept.append(text[prev_end:])
    return BitSequence._wrap(np.frombuffer(b"".join(kept), dtype=np.uint8))
