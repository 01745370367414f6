"""Seeded inputs for every workload, made with the benchmark's own numpy code.

Nothing here calls svrand: a change to `svrand.synth` or `write_holter` must
not change what the other workloads measure.  Every generator takes the run
seed and derives its own stream from it, so one seed gives the same inputs
on every machine and in every workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MS_PER_DAY = 86_400_000
HOLTER_HEADER = "index\ttime\tinterval\tannotation"

# (sex, decade) of each cohort member: four buckets, two of them with two
# people so that the cohort quartiles interpolate.
COHORT_BUCKETS = (("F", 30), ("F", 30), ("M", 40), ("M", 40), ("F", 60), ("M", 70))
COHORT_BEATS = 100_000
SYNTH_PERSONS = 4

# Short non-normal runs (1-4 beats) are repaired by editing, long ones (5 or
# more) are dropped.  One run is placed per 200-beat slot so that runs never
# touch and keep the injected length.
_SLOT = 200
_SHORT_RUN_P = (0.55, 0.25, 0.12, 0.08)

# eps-SV source: the next bit flips the current run with a hazard that
# depends on the run's symbol and its length (1, 2, or 3 and more).  Its
# next-bit law therefore depends on the last SV_MEMORY bits only.
SV_MEMORY = 3
SV_HAZARD = {0: (0.45, 0.55, 0.62), 1: (0.50, 0.42, 0.60)}
SV_EPS = max(abs(h - 0.5) for hs in SV_HAZARD.values() for h in hs)  # 0.12

COIN_EPS = 0.05

DEBRUIJN_ORDER = 20
# x^20 + x^3 + 1 is primitive, so the recurrence below has period 2^20 - 1.
_LFSR_TAP = 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@dataclass(frozen=True)
class Recording:
    """One synthetic Holter recording, kept in the exact units of its file."""

    name: str
    sex: str
    age: int
    interval_ms: np.ndarray   # int64, one per beat
    clock_ms: np.ndarray      # int64, time of day of each beat
    normal: np.ndarray        # bool, annotation "N"
    codes: np.ndarray         # annotation letters


def _day_night_rr(rng: np.random.Generator, start_s: int, beats: int) -> np.ndarray:
    """Interval in ms: slower at night, breathing modulation, smooth and white noise."""
    approx_clock = start_s + 0.86 * np.arange(beats)
    # 1 at 03:00, 0 at 15:00; cubed so the slow phase lasts about eight hours.
    night = (0.5 * (1 + np.cos(2 * np.pi * (approx_clock - 3 * 3600) / 86400))) ** 3
    drift = np.convolve(rng.normal(0, 18, beats + 40), np.ones(41) / np.sqrt(41),
                        mode="valid")
    rr = (760 + 260 * night
          + 22 * np.sin(2 * np.pi * np.arange(beats) / rng.uniform(3.5, 5.5))
          + drift + rng.normal(0, 12, beats))
    return np.clip(np.rint(rr), 350, 1900).astype(np.int64)


def cohort(seed: int) -> list[Recording]:
    """A cohort of 24 h-scale recordings with injected non-normal runs."""
    rng = _rng(seed, 1)
    out = []
    names = set()
    for sex, decade in COHORT_BUCKETS:
        age = decade + int(rng.integers(0, 10))
        start_s = int(rng.integers(8 * 3600, 11 * 3600))
        while True:
            name = f"{sex}_{age}_{start_s // 3600:02d}{start_s // 60 % 60:02d}{start_s % 60:02d}"
            if name not in names:  # person ids must be unique
                break
            start_s += 1
        names.add(name)
        iv = _day_night_rr(rng, start_s, COHORT_BEATS)
        normal = np.ones(COHORT_BEATS, dtype=bool)
        codes = np.full(COHORT_BEATS, "N")
        n_short = 250 + int(rng.integers(0, 100))
        n_long = 10 + int(rng.integers(0, 10))
        slots = rng.choice(COHORT_BEATS // _SLOT - 1, n_short + n_long, replace=False) + 1
        lengths = np.concatenate([rng.choice(4, n_short, p=_SHORT_RUN_P) + 1,
                                  rng.integers(5, 16, n_long)])
        for slot, length in zip(slots, lengths):
            i = slot * _SLOT + int(rng.integers(10, _SLOT - 20))
            normal[i:i + length] = False
            codes[i:i + length] = "V" if length < 5 else "X"
            # Premature beats for short runs, artefact-length intervals for long.
            low, high = (0.55, 0.8) if length < 5 else (0.3, 1.6)
            factor = rng.uniform(low, high, length)
            iv[i:i + length] = np.maximum(np.rint(iv[i:i + length] * factor), 200)
        clock = (start_s * 1000 + np.cumsum(iv)) % MS_PER_DAY
        out.append(Recording(name, sex, age, iv, clock, normal, codes))
    return out


def holter_text(rec: Recording) -> str:
    """The recording in the Holter text layout, written without svrand."""
    ms = rec.clock_ms
    h, rest = np.divmod(ms, 3_600_000)
    m, rest = np.divmod(rest, 60_000)
    s, frac = np.divmod(rest, 1000)
    q, r = np.divmod(rec.interval_ms, 1000)
    rows = [f"{k}\t{a:02d}:{b:02d}:{c:02d}.{d:03d}\t{e}.{f:03d}\t{g}\n"
            for k, a, b, c, d, e, f, g in zip(range(1, ms.size + 1), h.tolist(), m.tolist(),
                                              s.tolist(), frac.tolist(), q.tolist(),
                                              r.tolist(), rec.codes.tolist())]
    return HOLTER_HEADER + "\n" + "".join(rows)


def write_cohort(recordings: list[Recording], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for rec in recordings:
        path = directory / f"{rec.name}.txt"
        path.write_text(holter_text(rec), encoding="utf-8")
        paths.append(path)
    return paths


@dataclass(frozen=True)
class SynthJob:
    """Arguments of one `svrand synth` call."""

    name: str
    seed: int
    n: int


def synth_jobs(seed: int) -> list[SynthJob]:
    """Four `svrand synth` calls with distinct seeds, one per person."""
    rng = _rng(seed, 2)
    seeds = rng.choice(2**31 - 1, SYNTH_PERSONS, replace=False)
    jobs = []
    for k, (sex, decade) in enumerate(COHORT_BUCKETS[:SYNTH_PERSONS]):
        age = decade + int(rng.integers(0, 10))
        jobs.append(SynthJob(f"{sex}_{age}_2215{k:02d}", int(seeds[k]), COHORT_BEATS))
    return jobs


def biased_coin(seed: int, stream: int, n: int) -> np.ndarray:
    """n independent bits with P(0) = 1/2 + COIN_EPS."""
    return (_rng(seed, stream).random(n) >= 0.5 + COIN_EPS).astype(np.uint8)


def sv_source(seed: int, stream: int, n: int) -> np.ndarray:
    """n bits of the run-length eps-SV source described by SV_HAZARD."""
    rng = _rng(seed, stream)
    first = int(rng.integers(0, 2))
    parts, total = [], 0
    while total < n:
        m = (n - total) // 2 + 16   # runs average about two bits
        sym = (first + np.arange(m)) % 2
        h = np.array([SV_HAZARD[0], SV_HAZARD[1]])[sym]
        lengths = np.where(rng.random(m) < h[:, 0], 1,
                           np.where(rng.random(m) < h[:, 1], 2,
                                    2 + rng.geometric(h[:, 2])))
        parts.append(np.repeat(sym.astype(np.uint8), lengths))
        total += int(lengths.sum())
        first = (first + m) % 2
    return np.concatenate(parts)[:n]


def debruijn(seed: int) -> np.ndarray:
    """A binary De Bruijn sequence of order 20, rotated by a seeded offset.

    Built from the maximal-length sequence of s[i+20] = s[i+3] xor s[i] by
    lengthening its single run of 19 zeros; rotation keeps every cyclic
    window unique.
    """
    order = DEBRUIJN_ORDER
    period = (1 << order) - 1
    s = bytearray(period)
    s[0] = 1
    for i in range(period - order):
        s[i + order] = s[i + _LFSR_TAP] ^ s[i]
    m = np.frombuffer(bytes(s), dtype=np.uint8)
    # The run of order-1 zeros starts right after the only "1 0^(order-1) 1".
    doubled = np.concatenate([m, m[:order]])
    window = np.lib.stride_tricks.sliding_window_view(doubled, order + 1)[:period]
    target = np.zeros(order + 1, dtype=np.uint8)
    target[0] = target[-1] = 1
    (hit,) = np.flatnonzero((window == target).all(axis=1))
    rotated = np.roll(m, -(hit + 1))          # now starts with order-1 zeros
    seq = np.concatenate([[0], rotated]).astype(np.uint8)
    return np.roll(seq, -int(_rng(seed, 5).integers(0, seq.size)))
