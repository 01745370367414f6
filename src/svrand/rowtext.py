"""Holter rows as text, laid out a column at a time.

`holter_rows` writes the rows of a piece of a series into one field-major
byte matrix; `shortest_repr` gives repr's digits of a whole float column,
certified exactly, for the interval field.
"""

from __future__ import annotations

import numpy as np

from svrand.ingest import _CLOCK_TEMPLATE

# Powers of ten: int64 up to 10**18, and the exact doubles 10**p for the
# scales p of the interval digits, each split by Veltkamp into two halves of
# at most 26 bits for Dekker's exact product.
_POW10 = np.array([10 ** p for p in range(19)], dtype=np.int64)
_SCALES = np.array([float(10 ** p) for p in range(23)])
_SPLIT = 2.0 ** 27 + 1
_SCALES_HI = _SPLIT * _SCALES - (_SPLIT * _SCALES - _SCALES)
_SCALES_LO = _SCALES - _SCALES_HI
# The two and the four ASCII digits of each number below 10**2 and 10**4,
# one row per place.
_DIGITS2 = (np.arange(100) // np.array([[10], [1]]) % 10 + ord("0")).astype(np.uint8)
_DIGITS4 = np.concatenate([np.repeat(_DIGITS2, 100, axis=1), np.tile(_DIGITS2, 100)])


def shortest_repr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits of repr(x) for each double, where they are certified exactly.

    Returns (digits, scale, certified): where certified, repr(x) is the
    integer digits times 10**-scale, written in fixed notation without
    trailing zeros.  Certified values lie in [1e-4, 2**53) with a mantissa
    that is not a power of two, so the doubles reading back as x are those
    within h, half its spacing, on either side.  The scale puts x * 10**scale
    in [1e16, 1e17), where it is formed exactly as hi + lo by Dekker's
    product (1971) and 2h is at least 1.1.  repr gives the fewest digits
    that read back as x, the nearest to x of those (Steele and White 1990):
    the one multiple of 100 inside the scaled interval if there is one,
    else the multiple of 10 nearest x, else the integer nearest x.  A tie
    between two nearest, and a bound of the interval that is an integer,
    which reads back as x or not by the round-half-even rule, are left
    uncertified, as is every other value, for repr itself.
    """
    certified = (x >= 1e-4) & (x < 2.0 ** 53) & (x.view(np.uint64) << 12 != 0)
    x = np.where(certified, x, 1.5)
    scale = 16 - np.floor(np.log10(x)).astype(np.intp)
    hi = x * _SCALES[scale]
    scale += hi < 1e16
    scale -= hi >= 1e17
    whole, fraction = _scaled(x, scale)
    # The scaled interval is (whole + low, whole + high), h being half the
    # spacing scaled: exact, as are the small sums, whose bits span fewer
    # than 53 places.
    h = np.spacing(x) * _SCALES[scale] / 2
    low, high = fraction - h, fraction + h
    first, last = np.floor(low), np.ceil(high)
    certified &= (first != low) & (last != high)
    first = whole + first.astype(np.int64) + 1   # the integers inside the interval
    last = whole + last.astype(np.int64) - 1
    hundred = last - last % 100
    has_hundred = hundred >= first
    step = np.where(last - last % 10 >= first, 10, 1)
    below = whole % step
    # Twice the scaled value less the midpoint between the multiples of step
    # on either side of it: exact, and zero at a tie.
    above = (below + fraction) * 2 - step
    certified &= has_hundred | (above != 0)
    digits = np.where(has_hundred, hundred, whole - below + step * (above > 0))
    return digits, scale, certified


def _scaled(x: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**scale exactly, as an int64 whole part and a fraction in [0, 1).

    Dekker's product (1971) gives it as hi + lo, 10**scale being an exact
    double split in advance; hi is a whole number below 2**63.
    """
    hi = x * _SCALES[scale]
    split = _SPLIT * x
    x_hi = split - (split - x)
    x_lo = x - x_hi
    s_hi, s_lo = _SCALES_HI[scale], _SCALES_LO[scale]
    lo = ((x_hi * s_hi - hi) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
    floor = np.floor(lo)
    return hi.astype(np.int64) + floor.astype(np.int64), lo - floor


def _put_digits(cells: np.ndarray, values: np.ndarray) -> None:
    """The decimal digits of non-negative values, one value to a column of cells.

    cells is (width, n): row r takes the digit of the place 10**(width-1-r),
    with zeros to fill the width on the left.  Each value must be below
    10**width.
    """
    if not len(cells):
        return
    top = (len(cells) - 1) % 4 + 1   # the leftmost group of at most four digits
    for stop in range(len(cells), top, -4):
        values, low = np.divmod(values, 10_000)
        np.take(_DIGITS4, low, axis=1, out=cells[stop - 4:stop], mode="clip")
    np.take(_DIGITS4[4 - top:], values, axis=1, out=cells[:top], mode="clip")


def _put_index(cells: np.ndarray, keep: np.ndarray, index: np.ndarray) -> None:
    """Each index as a sign, its magnitude's digits above the last and the last
    digit: -2**63, whose magnitude int64 cannot hold, splits exactly."""
    negative = index < 0
    upper, lowest = np.divmod(index, np.where(negative, -10, 10))
    cells[0], keep[0] = ord("-"), negative
    _put_digits(cells[1:-1], upper)
    np.greater_equal(upper, _POW10[:len(cells) - 2, None][::-1], out=keep[1:-1])
    np.add(np.abs(lowest), ord("0"), out=cells[-1], casting="unsafe")


def _put_clock(clock: np.ndarray, ms: np.ndarray) -> None:
    """HH:MM:SS.mmm of each count of milliseconds of the day."""
    clock[:] = _CLOCK_TEMPLATE[:, None]
    minutes, millis = np.divmod(ms, 60_000)
    _put_digits(clock[0:2], minutes // 60)
    _put_digits(clock[3:5], minutes % 60)
    _put_digits(clock[6:8], millis // 1000)
    _put_digits(clock[9:12], millis % 1000)


def holter_rows(index, ms, interval, annotation) -> np.ndarray:
    """The text rows of a piece of a series, as UTF-8 bytes; ms is each
    row's clock in milliseconds of the day.

    Each field fills a block of a field-major byte matrix, one column per
    row, and a mask of the same shape marks the bytes its row keeps.  The
    kept bytes read column by column are the rows: each number right-aligned
    with its leading zeros dropped, the interval's fraction without its
    trailing zeros, and repr of every interval `shortest_repr` does not certify.
    """
    n = index.size
    # The interval as integer part, point and fraction of repr's digits.
    digits, scale, certified = shortest_repr(interval)
    power = _POW10[np.minimum(scale, 18)]   # a larger scale leaves no integer part
    integer = digits // power
    fraction = digits - integer * power
    del digits, power
    integer_w = max(int(np.searchsorted(_POW10, integer.max(), side="right")), 1)
    fraction_w = int(scale.max())
    others = np.flatnonzero(~certified)
    spelled = np.array([repr(v) for v in interval[others].tolist()], dtype="S")
    spelled = spelled.view(np.uint8).reshape(others.size, spelled.itemsize)
    region = max(integer_w + 1 + fraction_w, spelled.shape[1])
    codes = np.ascontiguousarray(annotation).view(np.uint32).reshape(n, -1)
    if codes.max(initial=0) < 128:
        label = codes.astype(np.uint8)
    else:
        label = np.char.encode(annotation, "utf-8").view(np.uint8).reshape(n, -1)
    # The index's sign, its digits above the last, and the last.
    upper = max(int(index.max()), -int(index.min())) // 10
    index_w = int(np.searchsorted(_POW10, upper, side="right")) + 2

    start = index_w + 1 + _CLOCK_TEMPLATE.size + 1   # where the interval starts
    tabs = np.array([index_w, start - 1, start + region])
    width = tabs[2] + label.shape[1] + 2
    cells = np.empty((width, n), dtype=np.uint8)
    keep = np.ones((width, n), dtype=bool)
    cells[tabs] = ord("\t")
    cells[-1] = ord("\n")
    _put_index(cells[:index_w], keep[:index_w], index)
    _put_clock(cells[index_w + 1:start - 1], ms)

    point = start + integer_w
    _put_digits(cells[start:point], integer)
    np.greater_equal(integer, _POW10[:integer_w, None][::-1], out=keep[start:point])
    keep[point - 1] = True
    cells[point] = ord(".")
    places = cells[point + 1:point + 1 + fraction_w]
    _put_digits(places, fraction)
    # A fraction digit is kept from the first place, fraction_w - scale,
    # to the last nonzero digit, or the first place alone for a zero.
    rows = np.arange(fraction_w, dtype=np.uint8)[:, None]
    first = (fraction_w - scale).astype(np.uint8)
    last = np.maximum(((places != ord("0")) * rows).max(axis=0), first)
    kept = keep[point + 1:point + 1 + fraction_w]
    np.greater_equal(rows, first, out=kept)
    kept &= rows <= last
    keep[point + 1 + fraction_w:tabs[2]] = False
    if others.size:
        keep[start:tabs[2], others] = False
        cells[start:start + spelled.shape[1], others] = spelled.T
        keep[start:start + spelled.shape[1], others] = spelled.T != 0
    # The matrix, its mask and the rows they make are the piece's peak
    # memory, so no other column is held past here.
    del integer, fraction, scale

    cells[tabs[2] + 1:-1] = label.T
    keep[tabs[2] + 1:-1] = label.T != 0
    return cells.T[keep.T]
