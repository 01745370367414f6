"""RR-series discretizers and the trend-cutting filter."""

from __future__ import annotations

import operator
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
        for name in ("accel", "decel"):
            value = getattr(self, name)
            try:
                operator.index(value)  # refuses floats, even whole ones
                integral = not isinstance(value, bool)  # True has an index too
            except TypeError:
                integral = False
            if not integral:
                raise TypeError(f"{name} must be an integer run length, got {value!r}")
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

_ONE = np.uint64(1)


def _down(w: np.ndarray, k: int) -> np.ndarray:
    """The words with position p holding position p + k of w, 0 past its end."""
    q, r = min(k >> 6, w.size), np.uint64(k & 63)
    out = np.empty_like(w)
    out[w.size - q:] = 0
    np.right_shift(w[q:], r, out=out[:w.size - q])
    if r and q < w.size:
        out[:w.size - q - 1] |= w[q + 1:] << np.uint64(64) - r
    return out


def _up(w: np.ndarray, k: int) -> np.ndarray:
    """The words with position p holding position p - k of w, 0 before its start."""
    q, r = min(k >> 6, w.size), np.uint64(k & 63)
    out = np.empty_like(w)
    out[:q] = 0
    np.left_shift(w[:w.size - q], r, out=out[q:])
    if r and q < w.size:
        out[q + 1:] |= w[:w.size - q - 1] >> np.uint64(64) - r
    return out


def _smear(w: np.ndarray, length: int, shift) -> np.ndarray:
    """The OR of shift(w, j) for j = 0 .. length - 1.

    After t doublings w holds the OR for j below 2**t; the largest 2**t not
    above length gives two ORs that overlap to cover all length shifts.
    """
    if length == 0:
        return np.zeros_like(w)
    span = 1
    while 2 * span <= length:
        w = w | shift(w, span)
        span *= 2
    return w if span == length else w | shift(w, length - span)


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

    The pass decides a block of bits at a time on little-endian uint64
    words, position p being bit p % 64 of word p // 64.  The words hold the
    block and the longer window - 1 bits after it, or the bits up to the
    end of the sequence and one past it, which counts as a run start.
    - Run starts are the bits XOR the bits one position earlier, the bit
      before the block shifted in.
    - A start is a head unless another start follows within its run's
      window, which O(log window) shifted ORs tell (`_smear`); a run of the
      shorter window's bit is checked only that far.
    - Whether a head's bit differs from the previous head's is a set/reset
      latch.  In the sum ~zeros + ones + carry of each word, the carry into
      a position is the bit of the last head before it: a 1-head sets it, a
      0-head resets it, any other position passes it on.  The carry into a
      word is the kind of the last head in the words before it, filled
      forward over words with none; a word's last head is a 1 when
      ones > zeros, the two masks being disjoint.
    - The cut windows are O(log window) shifted ORs of the cut heads.
    The next block gets the last head's bit and how far the last window
    reaches past the block's end.

    Only the output is handled bit by bit: each block is unpacked from the
    packed input, its keep mask is unpacked from the words, and its kept
    bits are packed into one buffer of n/8 bytes, the fewer than 8 past the
    last whole byte carried into the next block's; the result is a view of
    the buffer.  A block of _BLOCK bits takes about 6 bytes of scratch per
    bit, whatever n is.
    """
    packed, n = s._packed, len(s)
    accel, decel = min(pattern.accel, n + 1), min(pattern.decel, n + 1)  # no run exceeds n
    short, long = sorted((accel, decel))
    out = np.empty((n + 7) // 8, dtype=np.uint8)
    m, last, cover, carry = 0, False, 0, np.empty(0, dtype=bool)
    for b0 in range(0, n, _BLOCK):
        size = min(_BLOCK, n - b0)
        span = min(size + long - 1, n - b0 + 1)  # positions the block's decisions read
        hi = min(b0 + span, n)
        ahead = np.unpackbits(packed[b0 >> 3:(hi + 7) >> 3])[b0 & 7:][:hi - b0].view(bool)
        bits = ahead[:size]
        x = np.zeros((span >> 6) + 1, dtype="<u8")
        x.view(np.uint8)[:(ahead.size + 7) >> 3] = np.packbits(ahead, bitorder="little")
        prev = _up(x, 1)
        prev[0] |= np.uint64(s[b0 - 1]) if b0 else ~x[0] & _ONE  # the first bit starts a run
        starts = x ^ prev
        if hi - b0 < span:  # so is its end
            starts[(hi - b0) >> 6] |= _ONE << np.uint64((hi - b0) & 63)
        next_start = _down(starts, 1)
        near = _smear(next_start, long - 1, _down)
        if short < long:  # a run of the shorter window's bit is checked only that far
            near &= x if accel > decel else ~x
            near |= _smear(next_start, short - 1, _down)
        heads = starts & ~near
        heads[size >> 6] &= (_ONE << np.uint64(size & 63)) - _ONE  # this block's own heads
        heads[(size >> 6) + 1:] = 0
        ones = heads & x
        zeros = heads ^ ones
        # The last head's kind in each word, filled forward over words with
        # none; the virtual word before the first is the previous block's.
        kind = np.concatenate(([last], ones > zeros))
        found = np.concatenate(([True], heads != 0))
        kind = kind[np.maximum.accumulate(np.where(found, np.arange(found.size), 0))]
        latch = (~zeros + ones + kind[:-1].astype(np.uint64)) ^ ~zeros ^ ones
        last = kind[-1]
        cut_ones, cut_zeros = ones & ~latch, zeros & latch
        cut = _smear(cut_ones | cut_zeros, short, _up)
        if short < long:  # the longer window's bit cuts on past the shorter
            cut |= _up(_smear(cut_ones if accel > decel else cut_zeros, long - short, _up), short)
        keep = np.unpackbits((~cut).astype("<u8", copy=False).view(np.uint8), count=span,
                             bitorder="little").view(bool)
        keep[:cover] = False
        cover = span - size - np.count_nonzero(keep[size:])
        # m bits are out; the m % 8 in the last, partial byte are packed again
        # in front of this block's.  A mask, not np.compress, which would hold
        # an index per kept bit.
        kept = np.concatenate((carry, bits[keep[:size]]))
        out[m >> 3:(m >> 3) + (kept.size + 7) // 8] = np.packbits(kept)
        m += kept.size - carry.size
        carry = kept[kept.size & ~7:]
    return BitSequence._wrap(out[:(m + 7) >> 3], m)
