"""Conditional-bias estimation: per-history epsilons and the weighted aggregate.

For a history length h, the estimate is the worst absolute deviation from 1/2
of the empirical next-bit ratio count(history + bit) / count(history), taken
over all histories that actually occur.  The weighted aggregate averages the
per-history estimates with harmonic weights, down-weighting long histories
whose counts carry little statistical evidence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from svrand.bitseq import BitSequence, CountTable, count_substrings_fast

__all__ = [
    "EpsilonProfile",
    "epsilon_h",
    "epsilon_profile",
    "history_weights",
    "loglog_history",
    "max_history",
    "weighted_epsilon",
]

# Histories epsilon_h takes at a time, and epsilon_profile per piece of a
# count level: the float buffer stays at 1 MiB.  epsilon_profile halves each
# piece _PASS levels per pass; 2**_PASS must divide 2 * _CHUNK.
_CHUNK = 1 << 16
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


def epsilon_h(counts: CountTable, h: int) -> float | None:
    """Worst next-bit deviation from 1/2 after histories of length h.

    Uses raw occurrence counts: the ratio for pattern w = history + bit is
    count(w) / count(history); the empty history (h = 0) occurs n times, once
    per bit.  Histories that never occur contribute no evidence and are
    skipped; if none occurs the result is undefined (None).  A pattern with
    zero count under an occurring history yields the maximal deviation 1/2.

    The maximum is taken over chunks of _CHUNK histories, each in one
    (chunk, 2) float buffer, so no buffer spans all 2**h histories.  Every
    ratio sees the same float operations whatever the chunk, and the maximum
    is exact, so the result does not depend on the chunk size.  A table from
    count_substrings_fast keeps only its longest level and derives levels h
    and h + 1 on access; epsilon_profile takes the same steps walking down
    from that level in pieces, and holds about 4 * 2**(H + 1) bytes.
    """
    if h < 0:
        raise ValueError(f"history length must be >= 0, got {h}")
    if counts.max_len < h + 1:
        raise ValueError(
            f"count table covers lengths up to {counts.max_len}, need {h + 1}")
    den = counts.level(h) if h else np.array([counts.source_len])
    if not den.any():
        return None
    pairs = counts.level(h + 1)
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for start in range(0, den.size, _CHUNK):
            worst = _worst_ratio(pairs[2 * start:2 * (start + _CHUNK)],
                                 den[start:start + _CHUNK], worst)
    return worst


def _walk_down(counts: CountTable) -> list[float]:
    """epsilon_h(counts, h) for h = 0..max_len - 1, but 0.0 where no history occurs.

    Each pass cuts a level into pieces of 2 * _CHUNK counts and halves each
    piece _PASS times, taking each level's ratios while the piece is in
    cache; the halved pieces make the next pass's level, 2**_PASS times
    smaller.  The top level is only read.  The counts and float operations
    are epsilon_h's.
    """
    length = counts.max_len
    upper = counts.level(length)
    worst = [0.0] * length
    with np.errstate(invalid="ignore"):
        while length:
            steps = min(_PASS, length)
            coarse = np.empty(upper.size >> steps, dtype=upper.dtype)
            size = min(2 * _CHUNK, upper.size)
            for start in range(0, upper.size, size):
                pairs = upper[start:start + size]
                for h in range(length - 1, length - 1 - steps, -1):
                    # Halving level 1 gives n in both modes: the h = 0 denominator.
                    den = counts.halve(pairs, h, start >> (length - h))
                    worst[h] = _worst_ratio(pairs, den, worst[h])
                    pairs = den
                coarse[start >> steps:(start + size) >> steps] = pairs
            upper, length = coarse, length - steps
    return worst


def epsilon_profile(s: BitSequence, max_h: int | None = None, mode: str = "linear",
                    *, force_h: bool = False) -> EpsilonProfile:
    """Estimate epsilons for all history lengths 0..H from one shared count table.

    H defaults to max_history(len(s)).  Larger requests are clamped back to
    that bound with a warning unless force_h is set, in which case the
    override is recorded on the profile.  Only the table's top level is
    held, about 4 * 2**(H + 1) bytes, and _walk_down estimates from it.
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
    worst = _walk_down(count_substrings_fast(s, use_h + 1, mode))
    # Every history length up to n occurs; only a forced linear H passes n.
    eps = tuple(w if h <= n else None for h, w in enumerate(worst))
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
