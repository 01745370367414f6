"""Conditional-bias estimation: per-history epsilons and the weighted aggregate.

For a history length h, the estimate is the worst absolute deviation from 1/2
of the empirical next-bit ratio count(history + bit) / count(history), taken
over all histories that actually occur.  Counts are raw overlapping
occurrences: the empty history (h = 0) occurs n times, once per bit, and a
history that ends a linear sequence counts without a successor.  A bit that
never follows an occurring history gives the full deviation 1/2; where no
history of a length occurs, the estimate is undefined.  The weighted
aggregate averages the per-history estimates with harmonic weights,
down-weighting long histories whose counts carry little statistical evidence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from svrand.bitseq import BitSequence, CountTable, _check_count_args, count_substrings_fast

__all__ = [
    "EpsilonProfile",
    "epsilon_profile",
    "history_weights",
    "loglog_history",
    "max_history",
    "weighted_epsilon",
]

# Histories per piece of a count level in epsilon_profile's walk: the float
# buffer stays at 256 KiB.  Each piece is halved _PASS levels per pass;
# 2**_PASS must divide 2 * _CHUNK.
_CHUNK = 1 << 14
_PASS = 6


def max_history(n: int) -> int:
    """Largest history length at which a sub-1/2 epsilon verdict is possible.

    A sequence of length n can contain all length-(h+1) patterns only if
    2**(h+1) <= n - h - 1, which bounds h by floor(log2 n) - 1.
    """
    if n < 2:
        raise ValueError(f"sequence length must be >= 2, got {n}")
    return n.bit_length() - 2


def loglog_history(n: int) -> int:
    """Conservative history bound floor(log2(floor(log2 n))), the CLI 'loglog' preset."""
    return (max_history(n) + 1).bit_length() - 1  # max_history(n) + 1 = floor(log2 n)


@dataclass(frozen=True)
class EpsilonProfile:
    """Per-history epsilon estimates for one bit sequence.

    epsilons[h] is the estimate for history length h, or None where no
    history of that length occurs.  max_h may exceed the admissible bound
    only when forced is set.
    """

    epsilons: tuple[float | None, ...]
    max_h: int
    n: int
    mode: str
    clamped: bool = False
    forced: bool = False

    def __post_init__(self):
        if len(self.epsilons) != self.max_h + 1:
            raise ValueError("profile must hold one entry per history length 0..max_h")
        for h, e in enumerate(self.epsilons):
            if e is not None and not 0.0 <= e <= 0.5:
                raise ValueError(f"epsilon for history {h} outside [0, 1/2]: {e}")
        if not self.forced and self.max_h > max_history(self.n):
            raise ValueError(
                f"max_h={self.max_h} exceeds the admissible bound "
                f"{max_history(self.n)} for n={self.n} without forced=True")


def _worst_ratio(pairs: np.ndarray, den: np.ndarray, worst: float) -> float:
    """max(worst, |pairs / den - 1/2|), pairs holding den's histories extended by 0 and 1.

    A history that never occurs divides 0/0 = NaN, under the caller's
    errstate, and np.fmax skips it.  x/0 with x > 0 cannot occur.
    """
    ratios = pairs.reshape(-1, 2) / den[:, None]
    ratios -= 0.5
    np.abs(ratios, out=ratios)
    # An all-NaN chunk gives NaN, which never compares above worst.
    return max(worst, float(np.fmax.reduce(ratios, axis=None)))


def _walk_down(counts: CountTable) -> list[float]:
    """The estimate for h = 0..max_len - 1; where no history of a length occurs, it reads 0.0.

    Each pass cuts a level into pieces of 2 * _CHUNK counts and halves each
    piece _PASS times, taking each level's ratios while the piece is in
    cache; the halved pieces make the next pass's level, 2**_PASS times
    smaller, as uint32 whatever the top level's dtype.  The first pass
    reads each piece of the top level from CountTable.top, so the table's
    pair counts are only read and the whole top level is never held.  No
    deviation exceeds 1/2, so once a level has reached 1/2 its later
    pieces are only halved.  Every ratio sees the same float operations
    whatever the piece, and the maximum is exact, so the result depends on
    neither _CHUNK, _PASS nor the top level's dtype.
    """
    length = counts.max_len
    upper = None  # below the first pass, the level the pass before made
    worst = [0.0] * length
    with np.errstate(invalid="ignore"):
        while length:
            steps = min(_PASS, length)
            coarse = np.empty(1 << (length - steps), dtype=np.uint32)
            size = min(2 * _CHUNK, 1 << length)
            for start in range(0, 1 << length, size):
                pairs = (counts.top(start, start + size) if upper is None
                         else upper[start:start + size])
                for h in range(length - 1, length - 1 - steps, -1):
                    # Halving level 1 gives n in both modes: the h = 0 denominator.
                    den = counts.halve(pairs, h, start >> (length - h))
                    if worst[h] < 0.5:  # each ratio lies in [0, 1]
                        worst[h] = _worst_ratio(pairs, den, worst[h])
                    pairs = den
                coarse[start >> steps:(start + size) >> steps] = pairs
            upper, length = coarse, length - steps
    return worst


def epsilon_profile(s: BitSequence, max_h: int | None = None, mode: str = "linear",
                    *, force_h: bool = False) -> EpsilonProfile:
    """Estimate epsilons for all history lengths 0..H from one count table.

    H defaults to max_history(len(s)).  Larger requests are clamped back to
    that bound with a warning unless force_h is set, in which case the
    override is recorded on the profile.  _walk_down estimates from the
    table's top level, derived a piece at a time from its pair counts, the
    only counts held.

    A history that occurs exactly once has deviation 1/2.  So does its
    one-bit extension, which also occurs once; at the end of a linear
    sequence its one-bit predecessor does instead.  From the shortest length
    with such a history up to the top, every estimate is therefore exactly
    1/2.  The count starts two lengths below the top: if a history of that
    length occurs once, found a piece of CountTable.top at a time, the walk
    starts there, the two longest lengths read 1/2 and the table holds
    2**H pair counts.  Otherwise the top level is counted as well, 2**(H + 2)
    pair counts.  At the default H their mean is below 2, so a table of
    2**20 entries or more is stored as uint8 unless its counts grow past
    what that holds (see count_substrings_fast), and a smaller one as uint16.
    """
    n = len(s)
    bound = max_history(n)
    requested = bound if max_h is None else max_h
    if requested < 0:
        raise ValueError(f"requested max history must be >= 0, got {max_h}")
    over = requested > bound
    clamped = over and not force_h
    forced = over and not clamped
    if clamped:
        warnings.warn(
            f"requested history length {max_h} exceeds floor(log2 n) - 1 = {bound} "
            f"for n={n}; clamped to {bound}")
    use_h = bound if clamped else requested
    # Linear levels above n hold only zeros, so a forced H past n counts to
    # n + 1 and the longer histories, which never occur, are None.  The table
    # budget still judges H + 1.
    _check_count_args(use_h + 1, mode)
    top = min(use_h + 1, n + 1) if mode == "linear" else use_h + 1
    walked = None
    if 2 < top <= n:
        # A top - 2 history that occurs once sets lengths top - 2 and top - 1
        # to 1/2.  A top past n is left to the top count, which refuses it in
        # cyclic mode.
        table = count_substrings_fast(s, top - 2, mode)
        if any((table.top(i, i + _CHUNK) == 1).any() for i in range(0, 1 << (top - 2), _CHUNK)):
            walked = [*_walk_down(table), 0.5, 0.5]
        del table  # not held while the top is counted
    if walked is None:
        walked = _walk_down(count_substrings_fast(s, top, mode))
    eps = (*walked, *(None,) * (use_h + 1 - top))
    return EpsilonProfile(epsilons=eps, max_h=use_h, n=n, mode=mode,
                          clamped=clamped, forced=forced)


def history_weights(max_h: int) -> np.ndarray:
    """Normalised harmonic weights 1/(h+1) for h = 0..max_h; they sum to 1."""
    if max_h < 0:
        raise ValueError(f"max_h must be >= 0, got {max_h}")
    raw = 1.0 / np.arange(1, max_h + 2)
    return raw / raw.sum()


def weighted_epsilon(profile: EpsilonProfile) -> float:
    """Single harmonic-weighted epsilon over the profile's own range 0..max_h.

    Every entry must be defined.
    """
    undefined = [h for h, e in enumerate(profile.epsilons) if e is None]
    if undefined:
        raise ValueError(f"profile has undefined epsilons at history lengths {undefined}")
    eps = profile.epsilons
    # The weights of history_weights on plain floats: for a few dozen terms,
    # numpy calls cost more than the arithmetic.
    raw = [1.0 / (h + 1) for h in range(len(eps))]
    value = math.fsum(w * e for w, e in zip(raw, eps)) / math.fsum(raw)
    # A convex combination; rounding in the sum must not carry it outside
    # the range of the per-history estimates.
    return float(min(max(value, min(eps)), max(eps)))
