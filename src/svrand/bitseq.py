"""Binary sequences, overlapping-substring counting, and De Bruijn sequences."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

import numpy as np

__all__ = [
    "BitSequence",
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


class BitSequence:
    """Immutable sequence of 0/1 symbols.

    Built from a string of '0' and '1', or from an iterable that `from_array`
    accepts as a list.  Stored as a read-only uint8 array of 0s and 1s; the
    text form is derived on demand.
    """

    __slots__ = ("_arr",)

    def __init__(self, bits: str | Iterable[int] = ""):
        if isinstance(bits, str):
            arr = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
            if (arr > 1).any():
                bad = sorted(set(bits) - _VALID_BITS)
                raise ValueError(f"bit sequence may contain only '0' and '1', got {bad}")
        else:
            arr = BitSequence.from_array(list(bits))._arr
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
    def from_array(cls, arr: np.ndarray) -> "BitSequence":
        """Build from a 1-D array of 0/1 values of any numeric or bool type."""
        arr = np.asarray(arr)
        bits = arr.astype(np.uint8)
        if arr.ndim != 1 or (bits > 1).any() or (bits != arr).any():
            raise ValueError("bits must be a 1-D array of 0s and 1s")
        return cls._wrap(bits)

    @property
    def bits(self) -> str:
        return (self._arr + ord("0")).tobytes().decode("ascii")

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

    def __add__(self, other: "BitSequence") -> "BitSequence":
        return BitSequence._wrap(np.concatenate([self._arr, other._arr]))

    def __eq__(self, other) -> bool:
        return isinstance(other, BitSequence) and np.array_equal(self._arr, other._arr)

    def __hash__(self) -> int:
        return hash(self._arr.tobytes())

    def __str__(self) -> str:
        return self.bits

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitSequence({self.bits!r})"
        return f"BitSequence({self[:29].bits!r}..., len={len(self)})"


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
        if mode not in ("linear", "cyclic"):
            raise ValueError(f"mode must be 'linear' or 'cyclic', got {mode!r}")
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


def _check_max_len(max_len: int) -> None:
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
    if mode not in ("linear", "cyclic"):
        raise ValueError(f"mode must be 'linear' or 'cyclic', got {mode!r}")
    _check_max_len(max_len)
    text = s.bits
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
    # _check_max_len keeps lengths below 32 bits.
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
    instead of L - 1.  Each length has its own int64 array, zero beyond a
    linear sequence's n; np.add.at adds each block into the length-L one.
    Shorter lengths are filled in place by marginalising away the last bit,
    level[h] = level[h + 1] summed over pattern pairs, which misses only the
    window starting at n - h: in linear mode that window, the last h bits, is
    added back.  Cyclic mode counts the sequence with its first L - 1 bits
    appended, so no window is missed; it needs L <= n.
    """
    if mode not in ("linear", "cyclic"):
        raise ValueError(f"mode must be 'linear' or 'cyclic', got {mode!r}")
    _check_max_len(max_len)
    bits = s.to_array()
    n = bits.size
    if mode == "cyclic":
        if max_len > n:
            raise ValueError(
                f"cyclic counting needs pattern length L <= n, got L={max_len} for n={n}")
        bits = np.concatenate([bits, bits[:max_len - 1]])
    top = min(max_len, n)
    levels = [np.zeros(1 << h, dtype=np.int64) for h in range(1, max_len + 1)]
    if top:
        windows = bits.size - top + 1
        for start in range(0, windows, _BLOCK):
            vals = _window_values(bits[start:min(start + _BLOCK, windows) + top - 1], top)
            np.add.at(levels[top - 1], vals, 1)
        last = int(vals[-1])  # in linear mode, the sequence's last `top` bits
        for h in range(top - 1, 0, -1):
            np.sum(levels[h].reshape(-1, 2), axis=1, out=levels[h - 1])
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
