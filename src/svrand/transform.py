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
    if not np.isfinite(eta1):
        raise ValueError(f"offset must be finite, got {eta1}")
    iv = series.interval
    if iv.size < 2:
        raise ValueError(f"need at least 2 records, got {iv.size}")
    return BitSequence.from_array(np.where(iv[1:] >= iv[:-1] + eta1, 0, 1))


def discretize_rapid(series: RRSeries, eta2: float) -> BitSequence:
    """0 where the interval changes by at least eta2 in either direction, else 1."""
    if not 0 <= eta2 < np.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {eta2}")
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

    A search lands on the head of the next run of its bit that is at least
    a window long.  So the pass cuts a window from each such run whose bit
    differs from the previous such run's, taking a 0 before the first.
    These heads come from one run-start mask, True past the end, by clearing
    each start that another start follows within its run's window; a run of
    the shorter window's bit is checked only that far.  The selected heads
    alternate 1-run, 0-run, ..., from a 1-run, so the even ones take the
    accel windows and the odd ones the decel windows.  The heads' bool array
    is then the mask of bits to keep, cleared one window offset at a time.
    """
    a = s.to_array().view(bool)  # the bits are 0s and 1s
    n = a.size
    short, long = sorted((pattern.accel, pattern.decel))
    starts = np.ones(n + long - 1, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=starts[1:n])
    heads = starts[:n].copy()
    for k in range(1, long):
        stop = starts[k:k + n]
        if k >= short:  # runs of the shorter window's bit have passed their check
            stop = stop & a if pattern.accel > pattern.decel else stop > a
        np.greater(heads, stop, out=heads)
    starts = stop = None  # free the mask before the heads get positions
    pos = np.flatnonzero(heads)
    pos = pos[np.diff(a[pos], prepend=False)]
    keep = heads  # the heads have their positions
    keep.fill(True)
    for first, length in ((pos[0::2], pattern.accel), (pos[1::2], pattern.decel)):
        for k in range(length):
            keep[first + k] = False
    return BitSequence._wrap(a[keep].view(np.uint8))
