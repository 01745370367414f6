import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svrand import estimator
from svrand.bitseq import BitSequence, count_substrings, count_substrings_fast, debruijn
from svrand.estimator import (EpsilonProfile, epsilon_h, epsilon_profile,
                              history_weights, loglog_history, max_history,
                              weighted_epsilon)
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
    """epsilon_h for h >= 1 over all 2**h histories in one float buffer."""
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
    n = counts.source_len
    return float(np.max(np.abs(counts.level(1) / n - 0.5))) if n else None


class TestEpsilonH:
    def test_constant_sequence_h0(self):
        counts = count_substrings_fast(BitSequence("0000"), 1)
        assert epsilon_h(counts, 0) == 0.5

    def test_absent_pattern_gives_half(self):
        # "10" never occurs although history "1" does
        counts = count_substrings_fast(BitSequence("0011"), 2)
        assert epsilon_h(counts, 1) == 0.5

    @pytest.mark.parametrize("order", [2, 3, 4, 6])
    def test_debruijn_cyclic_is_zero(self, order):
        counts = count_substrings(debruijn(order), order, "cyclic")
        for h in range(order):
            assert epsilon_h(counts, h) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_oracle(self, seed):
        rng = random.Random(seed)
        text = "".join(rng.choice("01") for _ in range(rng.randrange(2, 300)))
        counts = count_substrings_fast(BitSequence(text), 6)
        for h in range(6):
            expected = reference_epsilon(text, h)
            got = epsilon_h(counts, h)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 40, 700, 20_000])
    def test_equals_division_over_occurring_histories(self, n):
        # Bit for bit the plain form: divide only where the history occurs.
        rng = np.random.default_rng(n)
        counts = count_substrings_fast(BitSequence.from_array(rng.integers(0, 2, n)), 12)
        assert epsilon_h(counts, 0) == closed_form_eps0(counts)
        for h in range(1, 12):
            num = counts.level(h + 1).reshape(-1, 2)
            den = counts.level(h)
            seen = den > 0
            expected = (float(np.max(np.abs(num[seen] / den[seen, None] - 0.5)))
                        if seen.any() else None)
            assert epsilon_h(counts, h) == expected

    @settings(max_examples=200, deadline=None)
    @given(chunk=st.sampled_from([1, 2, 7]),
           text=st.text("01", min_size=1, max_size=200), max_len=st.integers(2, 9))
    def test_chunks_equal_one_buffer(self, chunk, text, max_len):
        counts = count_substrings_fast(BitSequence(text), max_len)
        with mock.patch.object(estimator, "_CHUNK", chunk):
            assert epsilon_h(counts, 0) == closed_form_eps0(counts)
            for h in range(1, max_len):
                assert epsilon_h(counts, h) == one_buffer_epsilon(counts, h)

    @pytest.mark.parametrize("chunk", [1, estimator._CHUNK])
    def test_never_occurring_histories_raise_no_float_error(self, chunk):
        # A history that never occurs divides 0/0; its NaN must stay inside
        # epsilon_h, under a caller's strictest error state, and leave that
        # state as it was.  With one history per chunk, whole chunks are NaN.
        rng = np.random.default_rng(9)
        tables = [count_substrings_fast(BitSequence("01"), 6),
                  count_substrings_fast(BitSequence("1" * 40), 6),
                  *(count_substrings_fast(BitSequence.from_array(rng.integers(0, 2, n)), 10)
                    for n in (25, 300, 2000))]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            state = np.geterr()
            with mock.patch.object(estimator, "_CHUNK", chunk):
                for counts in tables:
                    assert epsilon_h(counts, 0) == closed_form_eps0(counts)
                    for h in range(1, counts.max_len):
                        assert epsilon_h(counts, h) == one_buffer_epsilon(counts, h)
            assert np.geterr() == state

    def test_empty_sequence_h0_is_undefined(self):
        counts = count_substrings_fast(BitSequence(""), 1)
        assert epsilon_h(counts, 0) is None

    def test_undefined_when_no_history_occurs(self):
        counts = count_substrings_fast(BitSequence("01"), 4)
        assert epsilon_h(counts, 3) is None

    def test_tail_history_counts_in_denominator(self):
        # "00110" ends with "0": that occurrence has no successor bit, yet it
        # counts, so history "0" gives 1/3 and 1/3 rather than 1/2 and 1/2.
        counts = count_substrings_fast(BitSequence("00110"), 2)
        assert epsilon_h(counts, 1) == pytest.approx(1 / 6)

    def test_requires_deep_enough_table(self):
        counts = count_substrings_fast(BitSequence("0101"), 2)
        with pytest.raises(ValueError):
            epsilon_h(counts, 2)
        with pytest.raises(ValueError):
            epsilon_h(counts, -1)


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
        # 2**22 bits: H = 21, so the table holds uint32 levels 1..22, 4 bytes
        # per entry.  Neither the counter nor the estimator may hold a buffer
        # that scales with n or 2**H beside it.
        rng = np.random.default_rng(22)
        s = BitSequence.from_array(rng.integers(0, 2, 1 << 22, dtype=np.uint8))
        table_bytes = 4 * sum(1 << length for length in range(1, 23))
        tracemalloc.start()
        try:
            profile = epsilon_profile(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profile.max_h == 21
        assert peak < table_bytes + (8 << 20)

    def test_profile_validates_range_and_bound(self):
        with pytest.raises(ValueError):
            EpsilonProfile(epsilons=(0.7,), max_h=0, n=4, mode="linear")
        with pytest.raises(ValueError):
            EpsilonProfile(epsilons=(0.1, 0.1, 0.1, 0.1), max_h=3, n=8, mode="linear")


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
