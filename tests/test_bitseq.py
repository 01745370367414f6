import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svrand import bitseq
from svrand.bitseq import BitSequence, count_substrings, count_substrings_fast, debruijn
from svrand.cohort import merge_persons


def random_bits(rng, n):
    return BitSequence("".join(rng.choice("01") for _ in range(n)))


def recursive_debruijn(order):
    """Reference: the recursive Lyndon-word (prenecklace) generator, as text."""
    out = []
    word = [0] * (order + 1)

    def extend(t, p):
        if t > order:
            if order % p == 0:
                out.extend("01"[b] for b in word[1:p + 1])
            return
        word[t] = word[t - p]
        extend(t + 1, p)
        for b in range(word[t - p] + 1, 2):
            word[t] = b
            extend(t + 1, t)

    extend(1, 1)
    return "".join(out)


def is_debruijn(text, order):
    wrapped = text + text[:order - 1]
    return len({wrapped[i:i + order] for i in range(len(text))}) == len(text) == 1 << order


class TestBitSequence:
    def test_rejects_other_symbols(self):
        with pytest.raises(ValueError):
            BitSequence("0102")

    def test_from_ints_and_indexing(self):
        s = BitSequence.from_array([1, 0, 1, 1])
        assert str(s) == "1011"
        assert s[0] == 1 and s[1] == 0
        assert s[1:3] == BitSequence("01")
        assert len(s) == 4

    def test_concat_and_array_round_trip(self):
        s = merge_persons([BitSequence("01"), BitSequence("10")])
        assert str(s) == "0110"
        assert BitSequence.from_array(s.to_array()) == s
        for dtype in (np.uint8, np.int64, bool):
            assert BitSequence.from_array(np.array([0, 1, 1, 0], dtype=dtype)) == s
        with pytest.raises(ValueError):
            s.to_array()[0] = 1  # the stored array is read-only

    def test_from_array_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitSequence.from_array(np.array([0, 2]))

    @pytest.mark.parametrize("bits", [[2, 0, -1, 0.5], [2], [-1], [0.5], [[0, 1]]])
    def test_iterable_takes_the_array_rule(self, bits):
        with pytest.raises(ValueError, match="0s and 1s"):
            BitSequence.from_array(bits)

    def test_iterable_of_bools_and_ints(self):
        assert BitSequence.from_array([True, False, 1, 0]) == BitSequence("1010")
        assert BitSequence.from_array(iter([0, 1])) == BitSequence("01")
        assert BitSequence.from_array([]) == BitSequence("")

    @pytest.mark.parametrize("bits", [[0, 1], iter([0, 1]), np.array([0, 1]), b"01"])
    def test_constructor_reads_only_text(self, bits):
        with pytest.raises(TypeError, match="BitSequence.from_array"):
            BitSequence(bits)


class TestCountSubstrings:
    def test_overlapping_linear_counts(self):
        table = count_substrings(BitSequence("001011011"), 3, "linear")
        expected = {"0": 4, "1": 5, "00": 1, "01": 3, "10": 2, "11": 2, "000": 0}
        for pattern, count in expected.items():
            assert table.count(pattern) == count

    def test_empty_sequence_all_zero(self):
        table = count_substrings(BitSequence(""), 2, "linear")
        for pattern in ("0", "1", "00", "01", "10", "11"):
            assert table.count(pattern) == 0

    def test_cyclic_wraps_once(self):
        table = count_substrings(BitSequence("0011"), 2, "cyclic")
        assert [table.count(p) for p in ("00", "01", "11", "10")] == [1, 1, 1, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_per_length_sums(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(0, 200)
        s = random_bits(rng, n)
        linear = count_substrings(s, 8, "linear")
        cyclic = count_substrings(s, 8, "cyclic")
        for h in range(1, 9):
            assert linear.level(h).sum() == max(n - h + 1, 0)
            assert cyclic.level(h).sum() == (n if h <= n else 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_prefix_extension_identity(self, seed):
        rng = random.Random(100 + seed)
        s = random_bits(rng, rng.randrange(1, 1 << 12))
        table = count_substrings(s, 10, "linear")
        for length in range(1, 10):
            for value in range(1 << length):
                w = format(value, f"0{length}b")
                assert (table.count("0" + w) + table.count("1" + w)
                        + str(s).startswith(w)) == table.count(w)

    def test_rejects_bad_args(self):
        s = BitSequence("01")
        with pytest.raises(ValueError):
            count_substrings(s, 0)
        with pytest.raises(ValueError):
            count_substrings(s, 2, "ring")
        with pytest.raises(ValueError):
            count_substrings(s, 40)  # over the table memory budget

    def test_query_errors(self):
        table = count_substrings(BitSequence("0101"), 2)
        with pytest.raises(ValueError):
            table.count("010")  # longer than the table bound
        with pytest.raises(ValueError):
            table.count("")
        with pytest.raises(ValueError):
            table.count("0a")

    def test_length_value_keys_distinct(self):
        table = count_substrings(BitSequence("000"), 2)
        assert table.count("0") == 3
        assert table.count("00") == 2


class TestCountSubstringsFast:
    def test_matches_worked_example(self):
        s = BitSequence("001011011")
        assert count_substrings_fast(s, 3) == count_substrings(s, 3, "linear")

    def test_constant_sequence(self):
        table = count_substrings_fast(BitSequence("0000"), 2)
        assert table.count("0") == 4
        assert table.count("1") == 0
        assert table.count("00") == 3
        assert table.count("01") == 0
        assert table.count("10") == 0
        assert table.count("11") == 0

    def test_bound_beyond_length(self):
        table = count_substrings_fast(BitSequence("01"), 4)
        assert table.count("01") == 1
        assert table.level(3).sum() == 0
        assert table.level(4).sum() == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_reference_counter(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(20):
            n = rng.randrange(0, 2049)
            max_len = rng.randrange(1, 11)
            s = random_bits(rng, n)
            assert count_substrings_fast(s, max_len) == count_substrings(s, max_len)
            if max_len <= n:
                assert (count_substrings_fast(s, max_len, "cyclic")
                        == count_substrings(s, max_len, "cyclic"))

    @pytest.mark.parametrize("n", range(9))
    def test_every_short_sequence(self, n):
        # Lengths beyond n stay all zero, and every lower level is exact.
        for value in range(1 << n):
            s = BitSequence(format(value, f"0{n}b") if n else "")
            assert count_substrings_fast(s, 9) == count_substrings(s, 9)

    @pytest.mark.parametrize("mode", bitseq.COUNTINGS)
    def test_levels_marginalise_at_production_size(self, mode):
        # Each lower level is the level above summed over pattern pairs, plus
        # in linear mode the window of the last h bits, which the level above
        # misses.  The reference-counter tests only reach small n.
        n = 1 << 20
        bits = np.random.default_rng(31).integers(0, 2, n, dtype=np.uint8)
        table = count_substrings_fast(BitSequence.from_array(bits), 21, mode)
        assert table.level(21).sum() == (n - 20 if mode == "linear" else n)
        for h in range(1, 21):
            expected = table.level(h + 1).reshape(-1, 2).sum(axis=1)
            if mode == "linear":
                expected[int("".join(map(str, bits[-h:])), 2)] += 1
            assert np.array_equal(table.level(h), expected)

    @pytest.mark.parametrize("mode", bitseq.COUNTINGS)
    def test_rejects_n_beyond_uint32(self, mode):
        # A zero-stride view: 2**32 bits that take no memory.
        s = BitSequence._wrap(np.broadcast_to(np.uint8(0), (1 << 32,)))
        with pytest.raises(ValueError, match="n < 2\\*\\*32"):
            count_substrings_fast(s, 3, mode)

    @settings(max_examples=200, deadline=None)
    @given(block=st.sampled_from([1, 2, 7]), k=st.integers(1, 5),
           edge=st.sampled_from([-1, 0, 1]), max_len=st.integers(1, 9),
           tail=st.booleans(), data=st.data())
    def test_block_boundaries(self, block, k, edge, max_len, tail, data):
        # n, or in linear mode with `tail` the window count n - L + 1, sits
        # one before, on or one after a multiple of the block size.
        n = k * block + edge + (max_len - 1 if tail else 0)
        s = BitSequence(data.draw(st.text("01", min_size=n, max_size=n)))
        with mock.patch.object(bitseq, "_BLOCK", block):
            assert count_substrings_fast(s, max_len) == count_substrings(s, max_len)
            if max_len <= n:
                assert (count_substrings_fast(s, max_len, "cyclic")
                        == count_substrings(s, max_len, "cyclic"))

    @settings(max_examples=100, deadline=None)
    @given(block=st.sampled_from([1, 2, 7]), text=st.text("01", min_size=2, max_size=14),
           shorter=st.booleans())
    def test_cyclic_length_close_to_n(self, block, text, shorter):
        s = BitSequence(text)
        max_len = len(text) - shorter
        with mock.patch.object(bitseq, "_BLOCK", block):
            assert (count_substrings_fast(s, max_len, "cyclic")
                    == count_substrings(s, max_len, "cyclic"))


class TestDebruijn:
    def test_known_orders(self):
        assert str(debruijn(1)) == "01"
        assert str(debruijn(2)) == "0011"
        assert str(debruijn(3)) == "00010111"

    @pytest.mark.parametrize("order", range(1, 13))
    def test_every_pattern_once_cyclically(self, order):
        seq = debruijn(order)
        assert len(seq) == 1 << order
        table = count_substrings(seq, order, "cyclic")
        assert (table.level(order) == 1).all()

    @pytest.mark.parametrize("order", range(1, 17))
    def test_equals_recursive_generator(self, order):
        assert str(debruijn(order)) == recursive_debruijn(order)

    @pytest.mark.parametrize("order", range(1, 5))
    def test_lexicographically_least(self, order):
        # Candidates in increasing value are candidates in lexicographic order.
        size = 1 << order
        least = next(text for text in (format(v, f"0{size}b") for v in range(1 << size))
                     if is_debruijn(text, order))
        assert str(debruijn(order)) == least

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            debruijn(0)
        with pytest.raises(ValueError):
            debruijn(30)
