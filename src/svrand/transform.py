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
    return BitSequence.from_array(~(iv[1:] >= iv[:-1] + eta1))


def discretize_rapid(series: RRSeries, eta2: float) -> BitSequence:
    """0 where the interval changes by at least eta2 in either direction, else 1."""
    if not 0 <= eta2 < np.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {eta2}")
    iv = series.interval
    if iv.size < 2:
        raise ValueError(f"need at least 2 records, got {iv.size}")
    return BitSequence.from_array(~(np.abs(np.diff(iv)) >= eta2))


def discretize_mono(series: RRSeries) -> BitSequence:
    """0 where three consecutive intervals are monotone, else 1; length n-2."""
    iv = series.interval
    if iv.size < 3:
        raise ValueError(f"need at least 3 records, got {iv.size}")
    a, b, c = iv[:-2], iv[1:-1], iv[2:]
    mono = ((c >= b) & (b >= a)) | ((c <= b) & (b <= a))
    return BitSequence.from_array(~mono)


# Bits cut_trends decides at a time; its scratch is O(_BLOCK) beside the output.
_BLOCK = 1 << 18


def _start_within(starts: np.ndarray, k: int, size: int) -> np.ndarray:
    """Whether a run starts within the k positions after each of the first size.

    `starts` must reach k positions past the first size.  After t doublings,
    reach[x] tells whether a start falls in [x + 1, x + 2**t]; the largest
    2**t not above k gives two reaches that overlap to cover [x + 1, x + k].
    """
    if k == 0:
        return np.zeros(size, dtype=bool)
    reach, span = starts[1:], 1
    while 2 * span <= k:
        reach = reach[:-span] | reach[span:]
        span *= 2
    return reach[:size] | reach[k - span:k - span + size]


def _heads(starts: np.ndarray, bits: np.ndarray, accel: int, decel: int) -> np.ndarray:
    """Where the runs of the block `bits` start that last at least their
    bit's window (accel for 1, decel for 0); `starts` reaches the longer
    window - 1 positions past the block."""
    size = bits.size
    short, long = sorted((accel, decel))
    near = _start_within(starts, long - 1, size)
    if short < long:  # a run of the shorter window's bit is checked only that far
        (np.logical_and if accel > decel else np.greater)(near, bits, out=near)
        near |= _start_within(starts, short - 1, size)
    return np.flatnonzero(np.greater(starts[:size], near, out=near))


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
    differs from the previous such run's, taking a 0 before the first.  The
    heads come, block by block, from a run-start mask over the block and the
    longer window - 1 bits after it, read with the bit before and True past
    the end, by clearing each start that another start follows within its
    run's window; a run of the shorter window's bit is checked only that
    far.  Whether a start follows within k bits takes O(log k) shifted ORs
    (`_start_within`), and the cut windows of each bit are marked in one
    write, so no step loops over the positions of a window.  The next block
    gets the last head's bit and how far the last window reaches past the
    block's end.  Each block and the longer window - 1 bits after it are
    unpacked from the packed input, and its kept bits are packed into one
    buffer of n/8 bytes, the fewer than 8 past the last whole byte carried
    into the next block's; the result is a view of the buffer.
    """
    packed, n = s._packed, len(s)
    accel, decel = min(pattern.accel, n + 1), min(pattern.decel, n + 1)  # no run exceeds n
    short, long = sorted((accel, decel))
    out = np.empty((n + 7) // 8, dtype=np.uint8)
    m, last, cover, carry = 0, False, 0, np.empty(0, dtype=bool)
    for b0 in range(0, n, _BLOCK):
        size = min(_BLOCK, n - b0)
        hi = min(b0 + size + long - 1, n)
        ahead = np.unpackbits(packed[b0 >> 3:(hi + 7) >> 3])[b0 & 7:][:hi - b0].view(bool)
        bits = ahead[:size]
        starts = np.ones(size + long - 1, dtype=bool)
        np.not_equal(ahead[1:], ahead[:-1], out=starts[1:ahead.size])
        starts[0] = b0 == 0 or ahead[0] != s[b0 - 1]
        pos = _heads(starts, bits, accel, decel)
        head_bits = np.concatenate(([last], bits[pos]))
        pos = np.compress(head_bits[1:] != head_bits[:-1], pos)
        keep = starts  # the heads have their positions
        keep[:cover], keep[cover:] = False, True
        ones = int(last)  # the cut heads alternate bits, from the one after `last`
        for first, length in ((pos[ones::2], accel), (pos[1 - ones::2], decel)):
            keep[first[:, None] + np.arange(length)] = False  # each window bit once
        last, cover = head_bits[-1], long - 1 - np.count_nonzero(keep[size:])
        # m bits are out; the m % 8 in the last, partial byte are packed again
        # in front of this block's.  A mask, not np.compress, which would hold
        # an index per kept bit.
        kept = np.concatenate((carry, bits[keep[:size]]))
        out[m >> 3:(m >> 3) + (kept.size + 7) // 8] = np.packbits(kept)
        m += kept.size - carry.size
        carry = kept[kept.size & ~7:]
    return BitSequence._wrap(out[:(m + 7) >> 3], m)
