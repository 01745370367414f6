"""Calibration: epsilon_profile on sources whose epsilon is known exactly.

An order-k parity-Markov source emits 1 with probability 1/2 + eps after a
k-bit history w of even parity and 1/2 - eps after one of odd parity.  Every
history of length h >= k ends in some w, so each of its next bits deviates
from 1/2 by exactly eps: the source is eps-SV with exactly that eps.

The estimate at h is max over histories of |p_w - 1/2|, with p_w the
history's empirical next-bit ratio, so it lies within max_w |p_w - P(1 | w)|
of eps.  The bits that follow the c_w occurrences of w form a martingale
sequence with bounded differences, and Azuma-Hoeffding bounds that distance
by sqrt(ln(2 * 2**h * L / delta) / (2 c_w)) for all histories and the L
lengths at once, with probability 1 - delta.  The radius treats c_w as given,
as the usual per-history bound does.  The estimator's denominator also counts
a linear sequence's last h bits, which have no successor; that moves p_w by
less than 1 / c_w.
"""

import math

import numpy as np
import pytest

from svrand.bitseq import BitSequence, count_substrings_fast
from svrand.estimator import epsilon_profile

N = 10 ** 6
DELTA = 1e-3
# Lengths are checked while every history expects at least this many occurrences.
MIN_EXPECTED = 2000


def parity_markov(n, eps, k, seed):
    """n bits of the order-k parity-Markov source; the history before the first bit is k zeros."""
    # With z_t i.i.d., P(z_t = 1) = 1/2 + eps, the bit z_t xor parity(w) is 1
    # with probability 1/2 + eps after an even w and 1/2 - eps after an odd one.
    flips = (np.random.default_rng(seed).random(n) < 0.5 + eps).tolist()
    mask = (1 << k) - 1
    window = 0
    bits = bytearray(n)
    for t, flip in enumerate(flips):
        bit = flip ^ (window.bit_count() & 1)
        bits[t] = bit
        window = ((window << 1) | bit) & mask
    return BitSequence.from_array(np.frombuffer(bits, dtype=np.uint8))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.12])
def test_estimate_within_azuma_radius_of_true_epsilon(eps, k):
    s = parity_markov(N, eps, k, seed=100 * k + round(1000 * eps))
    profile = epsilon_profile(s)
    # Windows of k bits are equally likely; each further bit at least
    # 1/2 - eps as likely, so a length-h history expects at least
    # N * 2**-k * (1/2 - eps)**(h - k) occurrences.
    top = k + int(math.log(MIN_EXPECTED * 2 ** k / N) / math.log(0.5 - eps))
    lengths = range(k, top + 1)
    counts = count_substrings_fast(s, top + 1)
    for h in lengths:
        with_successor = counts.level(h + 1).reshape(-1, 2).sum(axis=1)
        c_min = int(with_successor.min())
        assert c_min > MIN_EXPECTED / 2  # every history is well sampled
        radius = math.sqrt(math.log(2 * 2 ** h * len(lengths) / DELTA) / (2 * c_min)) + 1 / c_min
        assert abs(profile.epsilons[h] - eps) <= radius, (h, profile.epsilons[h], radius)
