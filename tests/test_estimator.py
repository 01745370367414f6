import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svrand import bitseq, estimator
from svrand.bitseq import (COUNTINGS, BitSequence, CountTable, count_substrings,
                           count_substrings_fast, debruijn)
from svrand.estimator import (EpsilonProfile, epsilon_profile, history_weights,
                              loglog_history, max_history, weighted_epsilon)
from svrand.synth import biased_coin


def occurrences(text, pattern):
    return sum(1 for i in range(len(text) - len(pattern) + 1)
               if text[i:i + len(pattern)] == pattern)


def reference_epsilon(text, h):
    """Brute-force deviation estimate by enumerating all histories."""
    n = len(text)
    if h == 0:
        if n == 0:
            return None
        return max(abs(occurrences(text, b) / n - 0.5) for b in "01")
    best = None
    for value in range(1 << h):
        history = format(value, f"0{h}b")
        den = occurrences(text, history)
        if den == 0:
            continue
        for b in "01":
            dev = abs(occurrences(text, history + b) / den - 0.5)
            if best is None or dev > best:
                best = dev
    return best


def one_buffer_epsilon(counts, h):
    """The h >= 1 estimate over all 2**h histories in one float buffer.

    Divides only where the history occurs; None where none does, as past n
    in linear mode.
    """
    den = counts.level(h)
    occurring = den > 0
    if not occurring.any():
        return None
    pairs = counts.level(h + 1).reshape(-1, 2)
    ratios = np.divide(pairs, den[:, None], out=np.full(pairs.shape, 0.5),
                       where=occurring[:, None])
    ratios -= 0.5
    return float(np.abs(ratios, out=ratios).max())


def closed_form_eps0(counts):
    """The h = 0 estimate as its own formula: max |count(b) / n - 1/2|."""
    return float(np.max(np.abs(counts.level(1) / counts.source_len - 0.5)))


def oracle_epsilons(counts, max_h):
    """The estimates for h = 0..max_h from a reference table that counts up to max_h + 1."""
    return (closed_form_eps0(counts),
            *(one_buffer_epsilon(counts, h) for h in range(1, max_h + 1)))


class TestEpsilonH:
    """The estimate at one history length h, read off epsilon_profile."""

    def test_constant_sequence_h0(self):
        assert epsilon_profile(BitSequence("0000")).epsilons[0] == 0.5

    def test_absent_pattern_gives_half(self):
        # "10" never occurs although history "1" does
        assert epsilon_profile(BitSequence("0011")).epsilons[1] == 0.5

    @pytest.mark.parametrize("order", [2, 3, 4, 6])
    def test_debruijn_cyclic_is_zero(self, order):
        profile = epsilon_profile(debruijn(order), mode="cyclic")
        assert profile.epsilons == (0.0,) * order

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_oracle(self, seed):
        rng = random.Random(seed)
        text = "".join(rng.choice("01") for _ in range(rng.randrange(2, 300)))
        profile = epsilon_profile(BitSequence(text), 5, force_h=True)
        for h in range(6):
            expected = reference_epsilon(text, h)
            got = profile.epsilons[h]
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 40, 700, 20_000])
    def test_equals_division_over_occurring_histories(self, n):
        # Bit for bit the plain form: divide only where the history occurs.
        rng = np.random.default_rng(n)
        s = BitSequence.from_array(rng.integers(0, 2, n))
        profile = epsilon_profile(s, 11, force_h=True)
        counts = count_substrings(s, 12)
        assert profile.epsilons[0] == closed_form_eps0(counts)
        for h in range(1, 12):
            num = counts.level(h + 1).reshape(-1, 2)
            den = counts.level(h)
            seen = den > 0
            expected = (float(np.max(np.abs(num[seen] / den[seen, None] - 0.5)))
                        if seen.any() else None)
            assert profile.epsilons[h] == expected

    @settings(max_examples=200, deadline=None)
    @given(walk=st.sampled_from([(1, 1), (2, 1), (2, 2), (7, 1), (4, 3)]),
           text=st.text("01", min_size=2, max_size=200), max_h=st.integers(1, 8))
    def test_chunks_equal_one_buffer(self, walk, text, max_h):
        s = BitSequence(text)
        whole = epsilon_profile(s, max_h, force_h=True)
        with mock.patch.multiple(estimator, _CHUNK=walk[0], _PASS=walk[1]):
            assert epsilon_profile(s, max_h, force_h=True) == whole
        assert whole.epsilons == oracle_epsilons(count_substrings(s, max_h + 1), max_h)

    @pytest.mark.parametrize("chunk", [1, estimator._CHUNK])
    def test_never_occurring_histories_raise_no_float_error(self, chunk):
        # A history that never occurs divides 0/0; its NaN must stay inside
        # epsilon_profile, under a caller's strictest error state, and leave
        # that state as it was.  With one history per piece, whole pieces are NaN.
        rng = np.random.default_rng(9)
        cases = [(BitSequence("01"), 5), (BitSequence("1" * 40), 5),
                 *((BitSequence.from_array(rng.integers(0, 2, n)), 9) for n in (25, 300, 2000))]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            state = np.geterr()
            with mock.patch.multiple(estimator, _CHUNK=chunk,
                                     _PASS=1 if chunk == 1 else estimator._PASS):
                for s, max_h in cases:
                    profile = epsilon_profile(s, max_h, force_h=True)
                    counts = count_substrings(s, max_h + 1)
                    assert profile.epsilons == oracle_epsilons(counts, max_h)
            assert np.geterr() == state

    def test_empty_sequence_h0_is_undefined(self):
        # No bit, no estimate: the profile refuses the sequence outright.
        with pytest.raises(ValueError, match=r"must be >= 2, got 0"):
            epsilon_profile(BitSequence(""))

    def test_undefined_when_no_history_occurs(self):
        assert epsilon_profile(BitSequence("01"), 3, force_h=True).epsilons[3] is None

    def test_tail_history_counts_in_denominator(self):
        # "00110" ends with "0": that occurrence has no successor bit, yet it
        # counts, so history "0" gives 1/3 and 1/3 rather than 1/2 and 1/2.
        assert epsilon_profile(BitSequence("00110")).epsilons[1] == pytest.approx(1 / 6)


class TestMaxHistory:
    @pytest.mark.parametrize("n,expected", [
        (2, 0), (8, 2), (1000, 8), (1_191_328, 19),
    ])
    def test_values(self, n, expected):
        assert max_history(n) == expected

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            max_history(1)

    def test_matches_float_log(self):
        for n in (2, 3, 7, 64, 100, 4095, 4096, 10 ** 6):
            assert max_history(n) == math.floor(math.log2(n)) - 1

    def test_loglog_preset(self):
        assert loglog_history(10 ** 6) == 4
        assert loglog_history(2) == 0


class TestEpsilonProfile:
    def test_debruijn_cyclic_all_zero(self):
        profile = epsilon_profile(debruijn(4), mode="cyclic")
        assert profile.max_h == 3
        assert profile.epsilons == (0.0, 0.0, 0.0, 0.0)

    def test_constant_sequence(self):
        profile = epsilon_profile(BitSequence("0000"))
        assert profile.max_h == 1
        assert profile.epsilons == (0.5, 0.5)

    def test_oversized_request_is_clamped_with_warning(self):
        s = biased_coin(1000, 0.0, 3)
        with pytest.warns(UserWarning, match=r"clamped to 8"):
            profile = epsilon_profile(s, max_h=40)
        assert profile.max_h == 8
        assert profile.clamped and not profile.forced

    # n = 1000 bits, so the bound floor(log2 n) - 1 is 8.
    @pytest.mark.parametrize("max_h, force_h, expected", [
        (None, False, (8, False, False, False)),
        (None, True, (8, False, False, False)),
        (7, False, (7, False, False, False)),
        (7, True, (7, False, False, False)),
        (8, False, (8, False, False, False)),
        (8, True, (8, False, False, False)),
        (9, False, (8, True, False, True)),
        (9, True, (9, False, True, False)),
    ])
    def test_history_policy(self, max_h, force_h, expected):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            profile = epsilon_profile(biased_coin(1000, 0.0, 3), max_h, force_h=force_h)
        got = (profile.max_h, profile.clamped, profile.forced, bool(caught))
        assert got == expected
        assert type(profile.clamped) is bool and type(profile.forced) is bool

    @pytest.mark.parametrize("force_h", [False, True])
    def test_negative_request_is_rejected(self, force_h):
        with pytest.raises(ValueError, match=r"must be >= 0, got -1"):
            epsilon_profile(biased_coin(1000, 0.0, 3), -1, force_h=force_h)

    def test_forced_override_is_recorded(self):
        profile = epsilon_profile(BitSequence("0101"), max_h=3, force_h=True)
        assert profile.max_h == 3
        assert profile.forced

    def test_forced_profile_propagates_undefined(self):
        profile = epsilon_profile(BitSequence("0101"), max_h=5, force_h=True)
        assert profile.epsilons[4] == 0.5  # sole length-4 history, no successor seen
        assert profile.epsilons[5] is None  # no length-5 history occurs at all

    def test_forced_cyclic_beyond_length_is_rejected(self):
        with pytest.raises(ValueError, match=r"L=7 for n=4"):
            epsilon_profile(BitSequence("0110"), 6, mode="cyclic", force_h=True)

    def test_forced_linear_past_n_counts_only_to_n_plus_one(self):
        # Levels above n are zero in linear mode; a 2**25-entry table of them
        # would be a 128 MiB peak.
        tracemalloc.start()
        try:
            profile = epsilon_profile(BitSequence("0101"), 24, force_h=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profile.epsilons == (0.0, 0.5, 0.5, 0.5, 0.5) + (None,) * 20
        assert peak < 1 << 20

    def test_count_cap_keeps_the_forced_history_errors(self):
        # The linear count stops at n + 1, but the table budget judges H + 1;
        # cyclic counting is not capped and needs H + 1 <= n.
        with pytest.raises(ValueError, match=(r"^pattern length bound 27 needs 2\*\*28 table "
                                              r"entries, over the budget of 2\*\*27$")):
            epsilon_profile(BitSequence("01"), 26, force_h=True)
        with pytest.raises(ValueError, match=r"L=5 for n=4"):
            epsilon_profile(BitSequence("0110"), 4, mode="cyclic", force_h=True)

    def test_smaller_request_allowed(self):
        profile = epsilon_profile(biased_coin(256, 0.0, 1), max_h=2)
        assert profile.max_h == 2 and not profile.clamped

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            epsilon_profile(BitSequence("1"))

    def test_biased_coin_bias_recovered(self):
        profile = epsilon_profile(biased_coin(10 ** 6, 0.1, seed=42))
        assert 0.095 <= profile.epsilons[0] <= 0.105

    @pytest.mark.parametrize("seed", range(4))
    def test_entries_stay_in_range(self, seed):
        rng = random.Random(seed)
        s = BitSequence("".join(rng.choice("011") for _ in range(500)))
        profile = epsilon_profile(s)
        assert all(e is not None and 0.0 <= e <= 0.5 for e in profile.epsilons)

    def test_peak_memory_is_the_count_table(self):
        # 2**22 bits: H = 21, and a length-20 history occurs once, so the
        # table stores only length 20: 2**21 uint8 pair counts, 2 MiB.  Neither
        # the counter, the singleton search nor the walk down may hold a
        # buffer that scales with n or 2**H beside it.
        rng = np.random.default_rng(22)
        s = BitSequence.from_array(rng.integers(0, 2, 1 << 22, dtype=np.uint8))
        tracemalloc.start()
        try:
            profile = epsilon_profile(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profile.max_h == 21
        assert peak < 3 << 20

    def test_profile_validates_range_and_bound(self):
        with pytest.raises(ValueError):
            EpsilonProfile(epsilons=(0.7,), max_h=0, n=4, mode="linear")
        with pytest.raises(ValueError):
            EpsilonProfile(epsilons=(0.1, 0.1, 0.1, 0.1), max_h=3, n=8, mode="linear")


def bincount_table(bits, max_len, mode):
    """An eager CountTable whose every level is np.bincount of that length's windows."""
    n = bits.size
    ext = np.concatenate([bits, bits[:max_len - 1]]) if mode == "cyclic" else bits
    levels = []
    for length in range(1, max_len + 1):
        windows = n if mode == "cyclic" else n - length + 1
        vals = np.zeros(windows, dtype=np.int64)
        for i in range(length):
            vals = (vals << 1) | ext[i:i + windows]
        levels.append(np.bincount(vals, minlength=1 << length))
    return CountTable(max_len, mode, n, levels, int(vals[-1]))


class TestProfileWalk:
    """epsilon_profile walks down from the top level; an eager table's oracle_epsilons check it."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(COUNTINGS),
           case=st.sampled_from(["auto", "clamped", "forced", "past_n"]),
           walk=st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 3),
                                 (estimator._CHUNK, estimator._PASS)]))
    def test_equals_reference_oracle(self, data, mode, case, walk):
        # Small pieces and passes (2 * chunk counts, halved `pass` times)
        # give small inputs many pieces, and tails outside the first one.
        if case == "past_n":  # a forced linear H of at least n
            mode = "linear"
            text = data.draw(st.text("01", min_size=2, max_size=12))
            max_h = data.draw(st.integers(len(text), len(text) + 3))
        else:
            text = data.draw(st.text("01", min_size=2, max_size=700))
            bound = max_history(len(text))
            # Cyclic counting needs H + 1 <= n.
            most = bound + 3 if mode == "linear" else min(bound + 3, len(text) - 1)
            max_h = None if case == "auto" else data.draw(st.integers(bound + 1, most))
        s = BitSequence(text)
        with warnings.catch_warnings(), \
                mock.patch.multiple(estimator, _CHUNK=walk[0], _PASS=walk[1]):
            warnings.simplefilter("ignore")
            profile = epsilon_profile(s, max_h, mode, force_h=case != "clamped")
        table = count_substrings(s, profile.max_h + 1, mode)
        assert profile.epsilons == oracle_epsilons(table, profile.max_h)

    @settings(max_examples=200, deadline=None)
    @given(walk=st.sampled_from([(1, 1), (2, 1), (2, 2), (7, 1), (4, 3)]),
           narrow=st.sampled_from([1, bitseq._NARROW]), mode=st.sampled_from(COUNTINGS),
           text=st.text("01", min_size=1, max_size=300), max_len=st.integers(1, 10))
    def test_walk_over_pair_pieces_equals_explicit_levels(self, walk, narrow, mode, text,
                                                          max_len):
        # The first pass reads the top level a piece at a time from the pair
        # table (uint8 with _NARROW at 1); the reference table passes every
        # level explicitly, and its top level is sliced.
        assume(mode == "linear" or max_len <= len(text))
        s = BitSequence(text)
        with mock.patch.object(bitseq, "_NARROW", narrow):
            lean = count_substrings_fast(s, max_len, mode)
        eager = count_substrings(s, max_len, mode)
        with mock.patch.multiple(estimator, _CHUNK=walk[0], _PASS=walk[1]):
            assert estimator._walk_down(lean) == estimator._walk_down(eager)

    @pytest.mark.parametrize("mode, end", [("linear", 0), ("linear", 1), ("cyclic", 1)])
    def test_top_spanning_several_pieces(self, mode, end):
        # 2**20 + 5 bits: H = 19, so a top level of length 20 makes several
        # pieces of 2 * _CHUNK.  (epsilon_profile counts these bits only to
        # length 18, which has a singleton, so the walk runs on its own.)
        # Bits ending in 1s put the linear tail's history in the last piece at
        # every length of the first pass; bits ending in 0s put it in the first.
        bits = np.random.default_rng(20 + end).integers(0, 2, (1 << 20) + 5, dtype=np.uint8)
        bits[-32:] = end
        eps = estimator._walk_down(count_substrings_fast(BitSequence.from_array(bits), 20, mode))
        table = bincount_table(bits, 20, mode)
        assert len(eps) == 20
        assert tuple(eps) == oracle_epsilons(table, 19)

    def test_saturated_level_is_divided_once(self):
        # The first pass down from length 20 over 2**20 + 5 random bits takes
        # levels 19..14 in 2**20 // (2 * _CHUNK) pieces each.  Level 19's histories occur about
        # twice, so its first piece already holds a deviation of 1/2; level
        # 14's occur about 64 times, and it never reaches 1/2.
        bits = np.random.default_rng(20).integers(0, 2, (1 << 20) + 5, dtype=np.uint8)
        table = bincount_table(bits, 20, "linear")
        assert np.nanmax(history_deviations(table, 19)[:estimator._CHUNK]) == 0.5
        assert np.nanmax(history_deviations(table, 14)) < 0.5
        # The level of each division: _worst_ratio(pairs, den, ...) takes the
        # den that CountTable.halve(pairs, h, ...) has just returned.
        level_of = {}
        halve = CountTable.halve

        def spy_halve(self, upper, length, start=0):
            den = halve(self, upper, length, start)
            level_of[id(den)] = (length, den)  # holding den keeps its id unique
            return den

        with mock.patch.object(CountTable, "halve", spy_halve), \
                mock.patch.object(estimator, "_worst_ratio",
                                  wraps=estimator._worst_ratio) as ratio:
            eps = estimator._walk_down(count_substrings_fast(BitSequence.from_array(bits), 20))
        divided = [level_of[id(c.args[1])][0] for c in ratio.call_args_list]
        assert divided.count(19) == 1
        assert divided.count(14) == (1 << 20) // (2 * estimator._CHUNK)
        assert tuple(eps) == oracle_epsilons(table, 19)

    @pytest.mark.parametrize("walk", [(2, 2), (1, 1)])
    def test_late_saturation_is_exact(self, walk):
        # 32 bits, H = 4.  At both walks each piece of level 3 holds one
        # history.  Level 3's only one-sided history, 111, is in its last
        # piece; level 4 reaches 1/2 at its first history, 0000.  A walk that
        # stops dividing a level after its first piece, or once the level
        # above has reached 1/2, reads level 3 below 1/2.
        s = BitSequence("01011001010110000110011011100100")
        table = count_substrings(s, 5)
        below = history_deviations(table, 3)
        assert below[-1] == 0.5 and below[:-1].max() < 0.5
        assert history_deviations(table, 4)[0] == 0.5
        with mock.patch.multiple(estimator, _CHUNK=walk[0], _PASS=walk[1]):
            profile = epsilon_profile(s)
        assert profile.max_h == 4
        assert profile.epsilons == oracle_epsilons(table, 4)


def debruijn_path(k, extra):
    """Order-k De Bruijn bits followed by their first `extra` bits.

    Read cyclically, or linearly with extra = k - 1, every history shorter
    than k occurs at least twice and is followed by both bits.
    """
    text = str(debruijn(k))
    return text + text[:extra]


class TestSingletonShortcut:
    """A length-h history that occurs once fixes every longer estimate at 1/2,
    so epsilon_profile counts two lengths below the top where that holds."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(COUNTINGS),
           text=st.one_of(st.text("01", min_size=2, max_size=200),
                          st.integers(1, 7).flatmap(lambda k: st.integers(0, k - 1).map(
                              lambda extra: debruijn_path(k, extra)))))
    def test_singleton_fixes_longer_lengths_at_half(self, data, mode, text):
        n = len(text)
        # Forced H up to n; cyclic counting needs H + 1 <= n.  Lengths past 16
        # would make the reference table too large.
        max_h = data.draw(st.integers(0, min(n if mode == "linear" else n - 1, 16)))
        last = min(max_h, n)  # the last length at which some history occurs
        s = BitSequence(text)
        table = count_substrings(s, max_h + 1, mode)
        for h in range(1, last + 1):
            if (table.level(h) == 1).any():
                assert all(np.nanmax(history_deviations(table, g)) == 0.5
                           for g in range(h, last + 1))
        profile = epsilon_profile(s, max_h, mode, force_h=True)
        assert profile.epsilons == oracle_epsilons(table, max_h)

    def counted_lengths(self, s, *args, **kwargs):
        with mock.patch.object(estimator, "count_substrings_fast",
                               wraps=estimator.count_substrings_fast) as count:
            profile = epsilon_profile(s, *args, **kwargs)
        return profile, [c.args[1] for c in count.call_args_list]

    def test_singleton_counts_once_two_lengths_below_the_top(self):
        bits = np.random.default_rng(20).integers(0, 2, (1 << 20) + 5, dtype=np.uint8)
        profile, lengths = self.counted_lengths(BitSequence.from_array(bits))
        assert profile.max_h == 19 and lengths == [18]
        assert profile.epsilons[18:] == (0.5, 0.5)

    def test_no_singleton_counts_the_top_as_well(self):
        # Every length-8 history of this cyclic sequence occurs at least twice.
        s = BitSequence("0110100110010110" * 64)
        profile, lengths = self.counted_lengths(s, mode="cyclic")
        assert profile.max_h == 9 and lengths == [8, 10]
        assert profile.epsilons == oracle_epsilons(count_substrings(s, 10, "cyclic"), 9)

    def test_forced_linear_past_n_counts_once(self):
        profile, lengths = self.counted_lengths(BitSequence("0101"), 24, force_h=True)
        assert lengths == [5]
        assert profile.epsilons == (0.0, 0.5, 0.5, 0.5, 0.5) + (None,) * 20


def history_deviations(table, h):
    """Each length-h history's worst next-bit deviation; NaN where it never occurs."""
    pairs = table.level(h + 1).reshape(-1, 2)
    with np.errstate(invalid="ignore"):
        return np.abs(pairs / table.level(h)[:, None] - 0.5).max(axis=1)


class TestWeightedEpsilon:
    def test_constant_profiles(self):
        half = EpsilonProfile(epsilons=(0.5,) * 3, max_h=2, n=8, mode="linear")
        zero = EpsilonProfile(epsilons=(0.0,) * 3, max_h=2, n=8, mode="linear")
        assert weighted_epsilon(half) == pytest.approx(0.5, abs=1e-15)
        assert weighted_epsilon(zero) == 0.0

    @pytest.mark.parametrize("max_h", range(30))
    def test_constant_profiles_exact(self, max_h):
        # Exact: rounding in the weighted sum must not leave [min, max] of the
        # terms, which for 1/2 would exceed the valid range.
        for level in (0.0, 0.1, 0.25, 0.5):
            profile = EpsilonProfile(epsilons=(level,) * (max_h + 1), max_h=max_h,
                                     n=2 ** (max_h + 1), mode="linear")
            assert weighted_epsilon(profile) == level

    def test_worked_value(self):
        profile = EpsilonProfile(epsilons=(0.0, 0.25, 0.5), max_h=2, n=8, mode="linear")
        # w(2) = 11/6; (0/1 + 0.25/2 + 0.5/3) / (11/6) = 7/44
        assert weighted_epsilon(profile) == pytest.approx(7 / 44, abs=1e-12)

    def test_matches_numpy_dot_form(self):
        # The harmonic-weighted dot product as numpy computes it, clipped to
        # the entries' range; plain-float sums may differ only by rounding.
        rng = np.random.default_rng(6)
        for _ in range(500):
            max_h = int(rng.integers(0, 65))
            eps = rng.uniform(0.0, 0.5, max_h + 1)
            raw = 1.0 / np.arange(1, max_h + 2)
            want = np.clip(np.dot(raw / raw.sum(), eps), eps.min(), eps.max())
            profile = EpsilonProfile(epsilons=tuple(eps.tolist()), max_h=max_h,
                                     n=2, mode="linear", forced=True)
            assert abs(weighted_epsilon(profile) - want) <= 1e-15

    @pytest.mark.parametrize("max_h", [0, 1, 5, 20, 64])
    def test_weights_sum_to_one(self, max_h):
        assert abs(history_weights(max_h).sum() - 1.0) <= 1e-12

    def test_rejects_undefined_entries(self):
        profile = EpsilonProfile(epsilons=(0.1, None), max_h=1, n=4, mode="linear")
        with pytest.raises(ValueError, match="undefined"):
            weighted_epsilon(profile)

    def test_aggregates_over_profile_range(self):
        # max_h = 0 is below the bound max_history(8) = 2; the profile's own
        # range is what gets weighted.
        profile = EpsilonProfile(epsilons=(0.1,), max_h=0, n=8, mode="linear")
        assert weighted_epsilon(profile) == 0.1
