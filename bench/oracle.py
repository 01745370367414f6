"""Independent reference for every output the benchmark checks.

Written from the method's definitions with numpy, sharing no code with
svrand: a window counter for both modes, the ratio estimator with harmonic
weights, the accel discretizer, the trend cut, the nocturnal window, the
editing rule and type-7 quartiles.  `self_test` checks it on hand-made
cases and against svrand's reference counter.

Run `python3 bench/oracle.py` from the repository root to self-test.
"""

from __future__ import annotations

import math
import sys

import numpy as np

NOCTURNAL_S = 6 * 3600.0
EDIT_MAX_RUN = 4      # runs of up to this many non-normal beats are repaired
EDIT_HISTORY = 7      # repaired with the median of this many preceding kept beats


def max_history(n: int) -> int:
    """floor(log2 n) - 1."""
    return n.bit_length() - 2


def count_levels(bits: np.ndarray, max_len: int, cyclic: bool) -> list[np.ndarray]:
    """Counts of every pattern of length 1..max_len, indexed by value.

    One bincount of the length-max_len windows, then marginalised down a
    length at a time.  Cyclic windows run over the input with its first
    max_len - 1 bits appended; in linear mode each shorter level also gains
    the one window that starts too late to begin a longer one.
    """
    bits = np.asarray(bits, dtype=np.int64)
    n = bits.size
    if not 1 <= max_len <= n:
        raise ValueError(f"window length {max_len} outside 1..{n}")
    ext = np.concatenate([bits, bits[:max_len - 1]]) if cyclic else bits
    nwin = ext.size - max_len + 1
    value = np.zeros(nwin, dtype=np.int64)
    for j in range(max_len):
        value = (value << 1) | ext[j:j + nwin]
    levels = [np.bincount(value, minlength=1 << max_len)]
    for h in range(max_len - 1, 0, -1):
        lvl = levels[-1].reshape(-1, 2).sum(axis=1)
        if not cyclic:
            lvl[int("".join(map(str, bits[n - h:].tolist())), 2)] += 1
        levels.append(lvl)
    return levels[::-1]   # levels[h - 1] holds length h


def profile(bits: np.ndarray, cyclic: bool = False) -> dict:
    """Ratio-estimator epsilons for h = 0..H, H = floor(log2 n) - 1, and the weighted value."""
    n = int(np.asarray(bits).size)
    big_h = max_history(n)
    levels = count_levels(bits, big_h + 1, cyclic)
    eps = [max(abs(int(c) / n - 0.5) for c in levels[0])]
    for h in range(1, big_h + 1):
        nxt = levels[h].reshape(-1, 2)
        hist = levels[h - 1]
        seen = hist > 0
        eps.append(float(np.max(np.abs(nxt[seen] / hist[seen, None] - 0.5))))
    weights = [1.0 / (h + 1) for h in range(big_h + 1)]
    weighted = math.fsum(w * e for w, e in zip(weights, eps)) / math.fsum(weights)
    return {"n": n, "H": big_h, "eps": eps, "weighted": weighted, "levels": levels}


def accel_bits(intervals: np.ndarray) -> np.ndarray:
    """0 where the next interval is at least as long (deceleration), else 1."""
    iv = np.asarray(intervals, dtype=float)
    return (iv[1:] < iv[:-1]).astype(np.uint8)


def trend_cut(bits: np.ndarray, accel: int = 3, decel: int = 3) -> np.ndarray:
    """Delete the next `accel` 1s-window, then the next `decel` 0s-window, repeatedly."""
    raw = np.asarray(bits, dtype=np.uint8).tobytes()
    ones, zeros = b"\x01" * accel, b"\x00" * decel
    keep = np.ones(len(raw), dtype=bool)
    pos = 0
    while True:
        i = raw.find(ones, pos)
        if i < 0:
            break
        keep[i:i + accel] = False
        j = raw.find(zeros, i + accel)
        if j < 0:
            break
        keep[j:j + decel] = False
        pos = j + decel
    return np.asarray(bits, dtype=np.uint8)[keep]


def elapsed(clock_s: np.ndarray) -> np.ndarray:
    """Seconds since the first beat, unfolding midnight wraps."""
    steps = np.diff(clock_s)
    steps[steps < 0] += 86400.0
    return np.concatenate([[0.0], np.cumsum(steps)])


def nocturnal(clock_s: np.ndarray, intervals: np.ndarray,
              duration: float = NOCTURNAL_S) -> tuple[int, int]:
    """[start, end) of the earliest window of `duration` seconds with maximal mean RR."""
    t = elapsed(clock_s)
    starts = np.flatnonzero(t[-1] - t >= duration)
    ends = np.searchsorted(t, t[starts] + duration, side="right")
    sums = np.concatenate([[0.0], np.cumsum(intervals)])
    means = (sums[ends] - sums[starts]) / (ends - starts)
    best = int(np.argmax(means))
    return int(starts[best]), int(ends[best])


def _median(values: list[float]) -> float:
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def edit(intervals: np.ndarray, normal: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Apply the editing rule; returns the kept intervals, edited and dropped counts."""
    iv = np.array(intervals, dtype=float)
    keep = normal.copy()
    bad = np.flatnonzero(~normal)
    if bad.size == 0:
        return iv, 0, 0
    breaks = np.flatnonzero(np.diff(bad) > 1)
    run_starts = bad[np.concatenate([[0], breaks + 1])]
    run_ends = bad[np.concatenate([breaks, [bad.size - 1]])] + 1
    edited = 0
    for i, j in zip(run_starts.tolist(), run_ends.tolist()):
        if j - i > EDIT_MAX_RUN:
            continue
        before = []
        k = i - 1
        while k >= 0 and len(before) < EDIT_HISTORY:
            if keep[k]:
                before.append(iv[k])
            k -= 1
        if before:
            iv[i:j] = _median(before)
            keep[i:j] = True
            edited += j - i
    return iv[keep], edited, int((~keep).sum())


def med_pipeline(clock_ms: np.ndarray, interval_ms: np.ndarray, normal: np.ndarray) -> dict:
    """Nocturnal window, editing, normal filter, accel bits, linear profile."""
    iv = interval_ms / 1000.0
    lo, hi = nocturnal(clock_ms / 1000.0, iv)
    kept, _, _ = edit(iv[lo:hi], normal[lo:hi])
    return profile(accel_bits(kept))


def quartiles7(values) -> list[float]:
    """Type-7 (linear interpolation) q0..q4."""
    v = sorted(values)
    out = []
    for p in (0, 0.25, 0.5, 0.75, 1):
        pos = (len(v) - 1) * p
        lo = math.floor(pos)
        hi = min(lo + 1, len(v) - 1)
        out.append(v[lo] + (pos - lo) * (v[hi] - v[lo]))
    return out


def synth_intervals(n: int, seed: int, baseline=0.9, amplitude=0.05, period=20.0,
                    noise=0.01) -> np.ndarray:
    """The documented sine-plus-noise formula, beat i = 1..n."""
    i = np.arange(1, n + 1)
    u = np.random.default_rng(seed).uniform(-noise, noise, n)
    return baseline + amplitude * np.sin(2 * np.pi * i / period) + u


def same6(reported, exact) -> bool:
    """True when `reported` is `exact` rounded to 6 significant digits."""
    if reported is None or exact is None:
        return reported is None and exact is None
    if exact == 0:
        return reported == 0
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(reported - exact) <= 0.5 * unit * (1 + 1e-9)


def close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def self_test(count_substrings=None, bit_sequence=None) -> list[str]:
    """Hand-made cases, plus a cross-check against svrand's reference counter
    when it is passed in.  Returns the failures."""
    bad = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    db3 = np.array([0, 0, 0, 1, 0, 1, 1, 1])
    check(profile(db3, cyclic=True)["eps"] == [0.0, 0.0, 0.0], "De Bruijn 00010111 cyclic")
    alternating = profile(np.array([0, 1] * 16))
    check(alternating["eps"] == [0.0, 0.5, 0.5, 0.5, 0.5], "0101... profile")
    harmonic = [1 / (h + 1) for h in range(5)]
    check(close(alternating["weighted"], 0.5 * sum(harmonic[1:]) / sum(harmonic)), "weights")
    check(profile(np.array([0, 0, 1, 0, 1, 1, 0, 0]))["eps"][0] == 0.125, "eps_0 of 00101100")
    check(trend_cut(np.array([1, 1, 1, 0, 0, 0, 1])).tolist() == [1], "cut 1110001")
    check(trend_cut(np.array([1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0])).tolist()
          == [1, 1, 0, 1, 0], "cut 11011110000")
    check(accel_bits(np.array([1.0, 1.0, 0.9, 1.2])).tolist() == [0, 1, 0], "accel")
    iv = np.array([1.0, 3.0, 2.0, 9.0, 9.0, 5.0, 9.0, 9.0, 9.0, 9.0, 9.0, 4.0])
    ok = np.array([1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1], dtype=bool)
    kept, edited, dropped = edit(iv, ok)
    check(kept.tolist() == [1.0, 3.0, 2.0, 2.0, 2.0, 5.0, 4.0] and (edited, dropped) == (2, 5),
          "edit")
    kept, edited, dropped = edit(np.array([9.0, 1.0, 9.0, 3.0]), np.array([0, 1, 0, 1], bool))
    check(kept.tolist() == [1.0, 1.0, 3.0] and (edited, dropped) == (1, 1), "edit at start")
    clock = np.array([86390.0, 86395.0, 5.0, 10.0, 20.0])
    check(elapsed(clock).tolist() == [0.0, 5.0, 15.0, 20.0, 30.0], "midnight unfold")
    check(nocturnal(clock, np.array([1.0, 5.0, 5.0, 1.0, 1.0]), 10.0) == (1, 3), "window")
    check(quartiles7([4.0, 1.0, 3.0, 2.0]) == [1.0, 1.75, 2.5, 3.25, 4.0], "quartiles")
    check(same6(0.123457, 0.1234567) and not same6(0.123456, 0.1234567), "same6")
    if count_substrings is not None:
        rng = np.random.default_rng(0)
        for trial in range(60):
            n = int(rng.integers(2, 90))
            bits = rng.integers(0, 2, n)
            length = int(rng.integers(1, min(n, 8) + 1))
            seq = bit_sequence("".join(map(str, bits.tolist())))
            for cyclic in (False, True):
                ref = count_substrings(seq, length, mode="cyclic" if cyclic else "linear")
                mine = count_levels(bits, length, cyclic)
                if not all(np.array_equal(ref.level(h), mine[h - 1])
                           for h in range(1, length + 1)):
                    bad.append(f"counter vs count_substrings, trial {trial}, cyclic={cyclic}")
    return bad


if __name__ == "__main__":
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from svrand import BitSequence, count_substrings
    failures = self_test(count_substrings, BitSequence)
    print("oracle self-test:", "ok" if not failures else "; ".join(failures))
    sys.exit(1 if failures else 0)
