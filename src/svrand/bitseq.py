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

# count_substrings_fast stores 2^L uint16 or uint32 counts, but a length L is refused
# where the eager reference table's 2^(L+1) integers would not fit comfortably in memory.
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
    array or any iterable of 0/1 values.  Stored packed 8 bits to a byte, as
    a read-only uint8 array in np.packbits order (first bit most significant)
    whose last byte's pad bits are 0, plus the length n.  The unpacked array,
    `to_array()`, and the text form, `str(seq)`, are derived on demand.
    """

    __slots__ = ("_packed", "_n")

    def __init__(self, bits: str = ""):
        if not isinstance(bits, str):
            raise TypeError(f"BitSequence reads a str of 0s and 1s, got "
                            f"{type(bits).__name__}; use BitSequence.from_array")
        arr = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        if arr.size and arr.max() > 1:
            bad = sorted(set(bits) - _VALID_BITS)
            raise ValueError(f"bit sequence may contain only '0' and '1', got {bad}")
        self._packed, self._n = np.packbits(arr), arr.size
        self._packed.flags.writeable = False

    @classmethod
    def _wrap(cls, packed: np.ndarray, n: int) -> "BitSequence":
        """Adopt n bits packed by np.packbits, the pad bits of the last byte 0."""
        seq = cls.__new__(cls)
        packed.flags.writeable = False
        seq._packed, seq._n = packed, n
        return seq

    @classmethod
    def from_array(cls, arr) -> "BitSequence":
        """Build from a 1-D array or iterable of 0/1 values of any numeric or bool type."""
        arr = np.asarray(arr if isinstance(arr, np.ndarray) else list(arr))
        bits = arr  # a uint8 or bool input is packed as it is
        if arr.dtype not in (np.uint8, np.bool_):
            # Only these two are sure to survive the cast unchanged.
            with np.errstate(invalid="ignore"):  # NaN or inf fails the check below
                bits = arr.astype(np.uint8)
        if (arr.ndim != 1 or (bits.size and bits.max() > 1)
                or (bits is not arr and (bits != arr).any())):
            raise ValueError("bits must be a 1-D array of 0s and 1s")
        return cls._wrap(np.packbits(bits), bits.size)

    def to_array(self) -> np.ndarray:
        """Return the bits unpacked, as a new read-only uint8 array of 0s and 1s."""
        bits = np.unpackbits(self._packed, count=self._n)
        bits.flags.writeable = False
        return bits

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, idx):
        r = range(self._n)[idx]  # an int index past either end raises IndexError
        if isinstance(r, int):
            return int(self._packed[r >> 3]) >> (7 - (r & 7)) & 1
        if not r:
            return BitSequence()
        lo, hi = sorted((r[0], r[-1]))  # unpack only the bytes that hold the slice
        bits = np.unpackbits(self._packed[lo >> 3:(hi >> 3) + 1])
        return BitSequence._wrap(np.packbits(bits[r[0] - (lo & ~7)::r.step][:len(r)]), len(r))

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitSequence) and self._n == other._n
                and np.array_equal(self._packed, other._packed))

    def __str__(self) -> str:
        return (self.to_array() + ord("0")).tobytes().decode("ascii")

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

    `levels` holds the longest len(levels) lengths (count_substrings_fast
    keeps only max_len, as uint16 or uint32); `level` derives each shorter
    one with `halve`, as a read-only array the table does not keep.  `last`
    is the value of a linear sequence's last min(max_len, n) bits; cyclic
    tables do not read it.
    """

    __slots__ = ("max_len", "mode", "source_len", "_levels", "_last")

    def __init__(self, max_len: int, mode: str, source_len: int,
                 levels: list[np.ndarray], last: int):
        if mode not in COUNTINGS:
            raise ValueError(f"mode must be one of {', '.join(COUNTINGS)}, got {mode!r}")
        if not 1 <= len(levels) <= max_len:
            raise ValueError("one counts array per stored pattern length expected")
        for h, lvl in enumerate(levels, start=max_len - len(levels) + 1):
            if lvl.shape != (1 << h,):
                raise ValueError(f"length-{h} level must have {1 << h} entries")
            lvl.flags.writeable = False
        self.max_len = max_len
        self.mode = mode
        self.source_len = source_len
        self._levels = levels
        self._last = last

    def halve(self, upper: np.ndarray, length: int, start: int = 0) -> np.ndarray:
        """Counts of `length`-bit patterns from a run of the (length + 1)-bit ones.

        A pattern's count is the sum of its two one-bit extensions, the run's
        even and odd entries, plus in linear mode the window of the last
        `length` bits, which nothing extends.  `start` is the value of the
        run's first shorter pattern.  The sums are at least uint32, so a
        uint16 level's halves cannot wrap.
        """
        counts = np.add(upper[0::2], upper[1::2], dtype=np.promote_types(upper.dtype, np.uint32))
        tail = (self._last & ((1 << length) - 1)) - start
        if self.mode == "linear" and 1 <= length <= self.source_len and 0 <= tail < counts.size:
            counts[tail] += 1
        return counts

    def _down(self) -> Iterator[tuple[int, np.ndarray]]:
        """(length, counts) from max_len down to 1, halving below the stored levels."""
        length = self.max_len
        for counts in reversed(self._levels):
            yield length, counts
            length -= 1
        for length in range(length, 0, -1):
            counts = self.halve(counts, length)
            counts.flags.writeable = False
            yield length, counts

    def level(self, length: int) -> np.ndarray:
        """All counts for patterns of the given length, indexed by value."""
        if not 1 <= length <= self.max_len:
            raise ValueError(
                f"pattern length {length} outside table range 1..{self.max_len}")
        return next(counts for h, counts in self._down() if h == length)

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
                        for (_, a), (_, b) in zip(self._down(), other._down())))

    def __repr__(self) -> str:
        return (f"CountTable(max_len={self.max_len}, mode={self.mode!r}, "
                f"source_len={self.source_len})")


def _check_count_args(max_len: int, mode: str) -> None:
    if mode not in COUNTINGS:
        raise ValueError(f"mode must be one of {', '.join(COUNTINGS)}, got {mode!r}")
    if max_len < 1:
        raise ValueError(f"pattern length bound must be >= 1, got {max_len}")
    # Exponents, not 1 << max_len: an absurd bound must not build a huge int.
    if max_len + 1 > (budget := MAX_TABLE_ENTRIES.bit_length() - 1):
        raise ValueError(f"pattern length bound {max_len} needs 2**{max_len + 1} "
                         f"table entries, over the budget of 2**{budget}")


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
    return CountTable(max_len, mode, n, levels, int(text[n - min(max_len, n):] or "0", 2))


def count_substrings_fast(s: BitSequence, max_len: int, mode: str = "linear") -> CountTable:
    """Production counter; output equals count_substrings(s, max_len, mode).

    The table stores only length max_len, 2**max_len uint16 counts (uint32
    where the windows number 2**(max_len + 8) or more, a mean count of 256),
    and derives the shorter lengths on access.  Each window adds one, so a
    uint16 count that wraps leaves the sum short of the window count; the
    windows are then counted again into uint32.  No count exceeds n, so n
    must be below 2**32.  The length-L windows (L = max_len, or n when a
    linear sequence is shorter) are read from big-endian 64-bit words: the
    word at byte j holds the eight windows that start at bits 8j..8j+7, each
    one shift and mask away.  Words are read in place from the stored bytes,
    _BLOCK // 8 at a time, but for the last few: those come from a short
    tail with 8 zero bytes after it, which in cyclic mode also appends the
    first L - 1 bits (so it needs L <= n).  np.add.at adds each block into
    the stored level, which stays zero if a linear sequence is shorter than
    max_len; the last window gives the table's `last`.
    """
    _check_count_args(max_len, mode)
    n = len(s)
    if n >= 1 << 32:
        raise ValueError(f"uint32 counts need n < 2**32, got n={n}")
    if mode == "cyclic" and max_len > n:
        raise ValueError(
            f"cyclic counting needs pattern length L <= n, got L={max_len} for n={n}")
    top = min(max_len, n)
    # Words from byte `head` on may reach past the whole stored bytes.
    # _check_count_args keeps L <= 26, so a window never leaves its word,
    # its value fits in uint32 and the first L - 1 bits lie in 4 bytes.
    head = max((n >> 3) - 7, 0)
    rest = np.unpackbits(s._packed[head:], count=n - 8 * head)
    if mode == "cyclic":
        rest = np.concatenate([rest, np.unpackbits(s._packed[:4], count=max_len - 1)])
    windows = 8 * head + rest.size - top + 1
    rest = np.concatenate([np.packbits(rest), np.zeros(8, dtype=np.uint8)])
    words = (np.ndarray(head, dtype=">u8", buffer=s._packed, strides=(1,)),
             np.ndarray((windows + 7) // 8 - head, dtype=">u8", buffer=rest, strides=(1,)))
    mask = (1 << top) - 1
    step = max(1, _BLOCK // 8)
    vals = np.empty(8 * step, dtype=np.uint32)
    for dtype in (np.uint16, np.uint32)[windows >= 1 << (max_len + 8):]:
        counts = np.zeros(1 << max_len, dtype=dtype)
        if top < max_len:
            break  # a linear sequence shorter than max_len has no window to add
        first = 0  # the index of the block's first word
        for block in (w[lo:lo + step] for w in words for lo in range(0, w.size, step)):
            block, filled = block.astype(np.uint64), 0
            for r in range(8):
                # Offset r has a window in the words before (windows - r + 7) // 8.
                part = block[:(windows - r + 7) // 8 - first]
                np.right_shift(part, np.uint64(64 - top - r), casting="unsafe",
                               out=vals[filled:filled + part.size])
                filled += part.size
            np.bitwise_and(vals[:filled], np.uint32(mask), out=vals[:filled])
            # A Python 1 would leave np.add.at's fast path.
            np.add.at(counts, vals[:filled], dtype(1))
            first += block.size
        if counts.sum(dtype=np.uint64) == windows:
            break
        del counts  # a wrapped uint16 count: freed before the uint32 table is made
    j, r = divmod(windows - 1, 8)
    last = int(words[1][j - head]) >> (64 - top - r) & mask
    return CountTable(max_len, mode, n, [counts], last)


def debruijn(order: int) -> BitSequence:
    """Lexicographically least binary De Bruijn sequence of the given order.

    The result has length 2**order and, read cyclically, contains every
    binary pattern of that length exactly once.  It joins the Lyndon words
    whose lengths divide the order, in lexicographic order, walked with
    Duval's successor step and appended straight to the result's bytes.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > (budget := DEBRUIJN_BUDGET_BITS.bit_length() - 1):
        raise ValueError(f"order {order} yields 2**{order} bits, "
                         f"over the budget of 2**{budget}")
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
            return BitSequence.from_array(np.frombuffer(out, dtype=np.uint8))
        word[last_zero:] = b"\x01"
