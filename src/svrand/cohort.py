"""Grouping of per-person results by sex and age decade, and the
trim/merge experiment helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from svrand.bitseq import BitSequence
from svrand.estimator import EpsilonProfile
from svrand.ingest import PersonMeta

__all__ = [
    "PersonResult",
    "CohortStats",
    "bucket",
    "quartiles",
    "trim_to_min",
    "merge_persons",
]


@dataclass(frozen=True)
class PersonResult:
    """Epsilon profile and weighted epsilon of one person under one experiment mode."""

    meta: PersonMeta
    profile: EpsilonProfile
    weighted: float | None
    mode_tag: str

    def __post_init__(self):
        if self.weighted is not None and not 0.0 <= self.weighted <= 0.5:
            raise ValueError(f"weighted epsilon outside [0, 1/2]: {self.weighted}")


@dataclass(frozen=True)
class CohortStats:
    """Five-number summary plus mean of weighted epsilon for one (sex, decade).

    decade is the lower age bound of the bracket [decade, decade + 10).
    """

    sex: str
    decade: int
    count: int
    q0: float
    q1: float
    q2: float
    q3: float
    q4: float
    mean: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("a cohort holds at least one person")
        qs = (self.q0, self.q1, self.q2, self.q3, self.q4)
        if any(a > b for a, b in zip(qs, qs[1:])):
            raise ValueError(f"quartiles must be non-decreasing, got {qs}")


def quartiles(values: Sequence[float]) -> tuple[float, float, float, float, float, float]:
    """(q0..q4, mean) with min/median/max exact and q1/q3 linearly interpolated.

    For finite values the quartiles equal np.percentile(values, [0, 25, 50,
    75, 100], method="linear") bit for bit: the same positions (n - 1) q,
    with numpy's neighbours at the last position (both -1), the same
    partition, so that 0.0 and -0.0 land where numpy puts them, and numpy's
    interpolation, which works from the upper neighbour when the fraction is
    1/2 or more.  np.percentile and np.unique would import numpy.ma.
    """
    if len(values) == 0:
        raise ValueError("no values")
    arr = np.asarray(values, dtype=float)
    last = arr.size - 1
    pos = last * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    lo = np.floor(pos).astype(np.intp)
    hi = lo + 1
    at_end = pos >= last
    lo[at_end] = hi[at_end] = -1
    v = np.partition(arr, sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    a, b = v[lo], v[hi]
    frac = pos - lo
    diff = b - a
    qs = np.where(frac >= 0.5, b - diff * (1 - frac), a + diff * frac)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(arr)
    if not np.isfinite(mean):  # the sum overflowed; the mean of finite values does not
        mean = np.sum(arr / arr.size)
    return (*qs.tolist(), float(mean))


def bucket(people: Sequence[tuple[PersonMeta, float | None]]
           ) -> tuple[list[CohortStats], list[PersonMeta]]:
    """Cohort summaries per non-empty (sex, decade), plus the left-over persons.

    Each person is a (meta, weighted epsilon) pair.  Persons with unknown sex
    or age, or without a weighted epsilon, cannot be bucketed; their metas are
    returned separately.  A weighted epsilon outside [0, 1/2] is a ValueError.
    """
    groups: dict[tuple[str, int], list[float]] = {}
    leftover = []
    for meta, weighted in people:
        if weighted is not None and not 0.0 <= weighted <= 0.5:
            raise ValueError(f"{meta.id}: weighted epsilon outside [0, 1/2]: {weighted}")
        if meta.sex in ("F", "M") and meta.age is not None and weighted is not None:
            groups.setdefault((meta.sex, 10 * (meta.age // 10)), []).append(weighted)
        else:
            leftover.append(meta)
    stats = [CohortStats(sex, decade, len(vals), *quartiles(vals))
             for (sex, decade), vals in sorted(groups.items())]
    return stats, leftover


def trim_to_min(sequences: Sequence[BitSequence]) -> list[BitSequence]:
    """Truncate every sequence to the shortest length in the set."""
    shortest = min((len(s) for s in sequences), default=0)
    return [s[:shortest] for s in sequences]


def merge_persons(sequences: Sequence[BitSequence]) -> BitSequence:
    """Concatenate per-person sequences into one, in order."""
    if not sequences:
        return BitSequence()
    return BitSequence.from_array(np.concatenate([s.to_array() for s in sequences]))
