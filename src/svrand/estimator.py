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

# Histories epsilon_h takes at a time: its float buffer stays at 1 MiB.
_CHUNK = 1 << 16


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
    is exact, so the result does not depend on the chunk size.
    """
    if h < 0:
        raise ValueError(f"history length must be >= 0, got {h}")
    if counts.max_len < h + 1:
        raise ValueError(
            f"count table covers lengths up to {counts.max_len}, need {h + 1}")
    den = counts.level(h) if h else np.array([counts.source_len])
    if not den.any():
        return None
    pairs = counts.level(h + 1).reshape(-1, 2)
    worst = 0.0
    for start in range(0, den.size, _CHUNK):
        den_c = den[start:start + _CHUNK, None]
        pairs_c = pairs[start:start + _CHUNK]
        # Histories that never occur keep the ratio 1/2, whose zero deviation
        # cannot raise the maximum.
        ratios = np.divide(pairs_c, den_c, out=np.full(pairs_c.shape, 0.5),
                           where=den_c > 0)
        ratios -= 0.5
        worst = max(worst, float(np.abs(ratios, out=ratios).max()))
    return worst


def epsilon_profile(s: BitSequence, max_h: int | None = None, mode: str = "linear",
                    *, force_h: bool = False) -> EpsilonProfile:
    """Estimate epsilons for all history lengths 0..H from one shared count table.

    H defaults to max_history(len(s)).  Larger requests are clamped back to
    that bound with a warning unless force_h is set, in which case the
    override is recorded on the profile.
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
    counts = count_substrings_fast(s, use_h + 1, mode)
    eps = tuple(epsilon_h(counts, h) for h in range(use_h + 1))
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
