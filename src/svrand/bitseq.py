"""Binary sequences, overlapping-substring counting, and De Bruijn sequences."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

import numpy as np

__all__ = [
    "BitSequence",
    "COUNTINGS",
    "CountTable",
    "count_substrings",
    "count_substrings_fast",
    "debruijn",
    "MAX_TABLE_ENTRIES",
    "DEBRUIJN_BUDGET_BITS",
]

# Dense count tables hold 2^(L+1) integers; refuse lengths that would not fit
# comfortably in memory.
MAX_TABLE_ENTRIES = 1 << 27

# Ceiling on generated De Bruijn sequence length (in bits).
DEBRUIJN_BUDGET_BITS = 1 << 26

# Window positions count_substrings_fast counts at a time: a block's uint32
# values and their temporaries take a few hundred KiB whatever n is.
_BLOCK = 1 << 16

_VALID_BITS = frozenset("01")

COUNTINGS = ("linear", "cyclic")  # counting stops at the end, or wraps to the start


class BitSequence:
    """Immutable sequence of 0/1 symbols.

    `BitSequence(text)` reads a string of '0' and '1'; `from_array` takes an
    array or any iterable of 0/1 values.  Stored as a read-only uint8 array of 0s
    and 1s; the text form, `str(seq)`, is derived on demand.
    """

    __slots__ = ("_arr",)

    def __init__(self, bits: str = ""):
        if not isinstance(bits, str):
            raise TypeError(f"BitSequence reads a str of 0s and 1s, got "
                            f"{type(bits).__name__}; use BitSequence.from_array")
        arr = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        if (arr > 1).any():
            bad = sorted(set(bits) - _VALID_BITS)
            raise ValueError(f"bit sequence may contain only '0' and '1', got {bad}")
        arr.flags.writeable = False
        self._arr = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BitSequence":
        """Adopt a uint8 array already known to hold only 0s and 1s."""
        seq = cls.__new__(cls)
        arr.flags.writeable = False
        seq._arr = arr
        return seq

    @classmethod
    def from_array(cls, arr) -> "BitSequence":
        """Build from a 1-D array or iterable of 0/1 values of any numeric or bool type."""
        arr = np.asarray(arr if isinstance(arr, np.ndarray) else list(arr))
        bits = arr.astype(np.uint8)
        if arr.ndim != 1 or (bits > 1).any() or (bits != arr).any():
            raise ValueError("bits must be a 1-D array of 0s and 1s")
        return cls._wrap(bits)

    def to_array(self) -> np.ndarray:
        """Return the bits as a read-only uint8 array of 0s and 1s."""
        return self._arr

    def __len__(self) -> int:
        return self._arr.size

    def __iter__(self) -> Iterator[int]:
        return iter(self._arr.tolist())

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return BitSequence._wrap(self._arr[idx])
        return int(self._arr[idx])

    def __eq__(self, other) -> bool:
        return isinstance(other, BitSequence) and np.array_equal(self._arr, other._arr)

    def __hash__(self) -> int:
        return hash(self._arr.tobytes())

    def __str__(self) -> str:
        return (self._arr + ord("0")).tobytes().decode("ascii")

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitSequence({str(self)!r})"
        return f"BitSequence({str(self[:29])!r}..., len={len(self)})"


class CountTable:
    """Occurrence counts of every binary pattern of length 1..max_len.

    Occurrences overlap.  In linear mode the end of the sequence does not
    wrap; in cyclic mode the last position is followed by the first.  Counts
    are stored per length as a dense array indexed by the pattern value
    (first bit most significant), so "0" and "00" are distinct keys.
    """

    __slots__ = ("max_len", "mode", "source_len", "_levels")

    def __init__(self, max_len: int, mode: str, source_len: int,
                 levels: list[np.ndarray]):
        if mode not in COUNTINGS:
            raise ValueError(f"mode must be one of {', '.join(COUNTINGS)}, got {mode!r}")
        if len(levels) != max_len:
            raise ValueError("one counts array per pattern length expected")
        for h, lvl in enumerate(levels, start=1):
            if lvl.shape != (1 << h,):
                raise ValueError(f"length-{h} level must have {1 << h} entries")
            lvl.flags.writeable = False
        self.max_len = max_len
        self.mode = mode
        self.source_len = source_len
        self._levels = levels

    def level(self, length: int) -> np.ndarray:
        """All counts for patterns of the given length, indexed by value."""
        if not 1 <= length <= self.max_len:
            raise ValueError(
                f"pattern length {length} outside table range 1..{self.max_len}")
        return self._levels[length - 1]

    def count(self, pattern: str) -> int:
        """Occurrences of a concrete pattern such as "01"."""
        if not pattern or not set(pattern) <= _VALID_BITS:
            raise ValueError(f"pattern must be a non-empty string of 0/1, got {pattern!r}")
        return int(self.level(len(pattern))[int(pattern, 2)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return (self.max_len == other.max_len
                and self.mode == other.mode
                and self.source_len == other.source_len
                and all(np.array_equal(a, b)
                        for a, b in zip(self._levels, other._levels)))

    def __repr__(self) -> str:
        return (f"CountTable(max_len={self.max_len}, mode={self.mode!r}, "
                f"source_len={self.source_len})")


def _check_count_args(max_len: int, mode: str) -> None:
    if mode not in COUNTINGS:
        raise ValueError(f"mode must be one of {', '.join(COUNTINGS)}, got {mode!r}")
    if max_len < 1:
        raise ValueError(f"pattern length bound must be >= 1, got {max_len}")
    if (1 << (max_len + 1)) > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"pattern length bound {max_len} needs {1 << (max_len + 1)} table "
            f"entries, over the budget of {MAX_TABLE_ENTRIES}")


def count_substrings(s: BitSequence, max_len: int, mode: str = "linear") -> CountTable:
    """Count every pattern of length 1..max_len by direct substring extraction.

    Straightforward reference counter: for each length, slide a window over
    the text (extended by a wrapped prefix in cyclic mode) and tally slices.
    """
    _check_count_args(max_len, mode)
    text = str(s)
    n = len(text)
    levels = []
    for h in range(1, max_len + 1):
        counts = np.zeros(1 << h, dtype=np.int64)
        if h <= n:
            window_text = text if mode == "linear" else text + text[: h - 1]
            tally = Counter(window_text[i:i + h]
                            for i in range(len(window_text) - h + 1))
            for pattern, cnt in tally.items():
                counts[int(pattern, 2)] = cnt
        levels.append(counts)
    return CountTable(max_len, mode, n, levels)


def _window_values(bits: np.ndarray, length: int) -> np.ndarray:
    """uint32 value of every length-`length` window of `bits`, first bit most significant.

    A window of length 2w is two windows of length w, w apart, so lengths
    1, 2, 4, ... cost one shift/or pass each; the requested length is then
    joined from the power-of-two windows its binary form names.
    """
    windows = bits.size - length + 1
    # _check_count_args keeps lengths below 32 bits.
    pow_win = bits.astype(np.uint32)  # windows of length `width`
    vals = np.zeros(windows, dtype=np.uint32)
    width, covered = 1, 0
    while True:
        if length & width:
            vals <<= width
            vals |= pow_win[covered:covered + windows]
            covered += width
        if 2 * width > length:
            return vals
        doubled = pow_win[:-width] << width
        doubled |= pow_win[width:]
        pow_win = doubled
        width *= 2


def count_substrings_fast(s: BitSequence, max_len: int, mode: str = "linear") -> CountTable:
    """Production counter; output equals count_substrings(s, max_len, mode).

    The length-L windows (L = max_len, or n when a linear sequence is
    shorter) are counted in blocks of _BLOCK positions, so no array of all n
    window values is ever built.  A block's values come from power-of-two
    windows in uint32 (see _window_values): about log2 L shift/or passes
    instead of L - 1.  Each length has its own uint32 array, zero beyond a
    linear sequence's n; np.add.at adds each block into the length-L one.
    No count exceeds n, so n must be below 2**32.
    Shorter lengths are filled in place by marginalising away the last bit:
    level[h] is the strided add of level[h + 1]'s even and odd entries (the
    two patterns that extend each one by a bit), which numpy runs at memory
    speed, unlike a sum over a length-2 axis.  This misses only the window
    starting at n - h: in linear mode that window, the last h bits, is added
    back.  Cyclic mode counts the sequence with its first L - 1 bits
    appended, so no window is missed; it needs L <= n.
    """
    _check_count_args(max_len, mode)
    bits = s.to_array()
    n = bits.size
    if n >= 1 << 32:
        raise ValueError(f"uint32 counts need n < 2**32, got n={n}")
    if mode == "cyclic":
        if max_len > n:
            raise ValueError(
                f"cyclic counting needs pattern length L <= n, got L={max_len} for n={n}")
        bits = np.concatenate([bits, bits[:max_len - 1]])
    top = min(max_len, n)
    levels = [np.zeros(1 << h, dtype=np.uint32) for h in range(1, max_len + 1)]
    if top:
        windows = bits.size - top + 1
        for start in range(0, windows, _BLOCK):
            vals = _window_values(bits[start:min(start + _BLOCK, windows) + top - 1], top)
            # A Python 1 would leave np.add.at's fast path for uint32.
            np.add.at(levels[top - 1], vals, np.uint32(1))
        last = int(vals[-1])  # in linear mode, the sequence's last `top` bits
        for h in range(top - 1, 0, -1):
            np.add(levels[h][0::2], levels[h][1::2], out=levels[h - 1])
            if mode == "linear":
                levels[h - 1][last & ((1 << h) - 1)] += 1
    return CountTable(max_len, mode, n, levels)


def debruijn(order: int) -> BitSequence:
    """Lexicographically least binary De Bruijn sequence of the given order.

    The result has length 2**order and, read cyclically, contains every
    binary pattern of that length exactly once.  It joins the Lyndon words
    whose lengths divide the order, in lexicographic order, walked with
    Duval's successor step and appended straight to the result's bytes.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if (1 << order) > DEBRUIJN_BUDGET_BITS:
        raise ValueError(f"order {order} yields {1 << order} bits, "
                         f"over the budget of {DEBRUIJN_BUDGET_BITS}")
    out = bytearray()
    word = bytearray(1)  # the Lyndon word "0"
    while True:
        if order % len(word) == 0:
            out += word
        # Duval's step: repeat the word to the full order, then raise its
        # last 0 to 1 and cut after it.  Past the word "1" there is none.
        word = (word * order)[:order]
        last_zero = word.rfind(0)
        if last_zero < 0:
            return BitSequence._wrap(np.frombuffer(out, dtype=np.uint8))
        word[last_zero:] = b"\x01"
