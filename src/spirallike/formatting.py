"""The CLI's CSV tables: every cell "%.15g" % x, written by numpy.

csv_blocks gives the text Python's per-cell formatting gives, a block of
rows at a time and without a Python call per cell: the 15 significant
digits of a cell come from an exact rounding of |x| * 10^(14 - e), and a
lookup of 4-digit groups writes them into a fixed-width buffer whose
padding one bytes call drops.  The
cells this route does not cover (exponent notation, zeros, non-finite
values, exact rounding ties) go through "%.15g" % x itself.
"""

import functools
import itertools

import numpy as np

# rows per block of csv_blocks.  cli.main writes each block before the next
# is formatted, so the table never stands whole in memory: a cold default
# `qtheta` takes 6,400 minor page faults at 4,096 rows, against 11,600 for
# one whole-table string and 16,700 for 16,384-row blocks, and runs about
# 17 ms faster than either, to a pipe and to /dev/null alike
# (perf/stream_time.py).  The writer's temporaries stay near 1 MB per column
_CHUNK_ROWS = 4096
# 8 bytes of text read as a number with byte 0 the lowest, on any platform,
# so that a shift by 8 bits moves the text by one byte
_WORD = np.dtype("<u8")


def csv_blocks(header, *columns):
    """Iterator over the text of a CSV table: header, then one row per index of the columns.

    Each value is written "%.15g" % x.  The columns are stacked at the call;
    the iterator formats them a block of _CHUNK_ROWS rows at a time, when
    the block is asked for.  It yields the header line without its newline,
    then each block with every line led by its newline, then the last
    newline, so that the joined text is the whole table.
    """
    rows = np.column_stack(columns).astype(np.float64, copy=False)
    blocks = (rows[start:start + _CHUNK_ROWS] for start in range(0, len(rows), _CHUNK_ROWS))
    return itertools.chain((header,), map(_format_rows, blocks), ("\n",))


@functools.cache
def _cell_tables():
    """Lookup tables of _format_rows, built on first use.

    pow10: 10^k for 0 <= k <= 22 (each an exact double) and its Veltkamp
    split, one row each.  digits: the 4-digit group g as 4 ASCII bytes.
    head: the word of the sign and the lead "0." plus -e - 1 zeros of
    e < 0, per (negative, e + 4).  masks: per (e + 4, the byte of the last
    significant digit), two words each of the bytes taken from the digits
    shifted down one byte, the bytes taken in place, and the point.
    """
    pow10 = np.array([float(10**k) for k in range(23)])
    d = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # the digits of 0..9999
    digits = np.ascontiguousarray(d.T + np.uint8(ord("0"))).view(np.uint32).ravel()

    neg, e = (a.ravel()[:, None] for a in np.indices((2, 19)))
    e = e - 4
    head = np.zeros((neg.size, 8), np.uint8)
    head[:, 1:2] = np.where(neg, ord("-"), 0)
    head[:, 2:7] = np.where((np.arange(5) < 1 - e) & (e < 0), np.frombuffer(b"0.000", np.uint8), 0)

    e, last = (a.ravel()[:, None] for a in np.indices((19, 16)))
    e = e - 4
    last = np.maximum(last, e + 1)  # the integer part keeps its zeros
    point = np.where(e >= 0, e + 1, 16)  # the point's byte; 16: no point
    j = np.arange(16)
    masks = np.concatenate([
        np.where((j < point) & (j < last), 0xFF, 0),
        np.where((j > point) & (j <= last), 0xFF, 0),
        np.where((j == point) & (last > point), ord("."), 0),
    ], axis=1).astype(np.uint8).view(_WORD)
    return (np.stack([pow10, *_split(pow10)]), digits, head.view(_WORD).ravel(),
            np.ascontiguousarray(masks.T))


def _split(a):
    """Veltkamp's split: hi + lo == a, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _format_rows(block):
    """The CSV lines of a 2-d float64 block, each cell as "%.15g" % x.

    A cell with 1e-4 <= |x| < 1e15 is written in fixed notation from the
    15 significant digits n = round(|x| * 10^(14 - e)), e = floor(log10|x|).
    The product is exact as hi + lo (Dekker's two-product; 10^(14 - e) is an
    exact double) and d = (hi - floor(hi) - 1/2) + lo has the sign of the
    exact remainder minus 1/2, since a rounded sum is zero only when the
    exact sum is.  Cells in exponent notation (|x| < 1e-4, |x| >= 1e15),
    zeros, non-finite cells, exact ties d == 0 (which "%.15g" rounds half to
    even) and n = 10^15 (|x| rounds up to 10^(e + 1)) go through "%.15g" % x.

    A cell takes 24 bytes: its separator, the sign, the lead "0.000" of
    |x| < 1 and a pad byte, then "0" and the 15 digits with the point
    inserted (the integer part is shifted down one byte, over the "0") and
    the trailing zeros of the fraction blanked.  The zero bytes are dropped
    at the end.
    """
    pow10, digits, head, masks = _cell_tables()
    x = block.ravel()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e15)  # false for nan and inf
    a = np.where(fixed, a, 1.0)
    e = np.minimum(np.floor(np.log10(a)), 14).astype(np.intp)

    def scaled(a, e):  # hi + lo == a * 10^(14 - e) exactly
        p, p_hi, p_lo = pow10.take(14 - e, axis=1)
        hi = a * p
        a_hi, a_lo = _split(a)
        return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo

    hi, lo = scaled(a, e)
    off = np.flatnonzero((hi < 1e14) | (hi >= 1e15))  # log10 was one off next to 10^e
    if off.size:
        e[off] += np.where(hi[off] < 1e14, -1, 1)
        hi[off], lo[off] = scaled(a[off], e[off])
    n = np.floor(hi)
    d = (hi - n - 0.5) + lo
    n += d > 0
    slow = np.flatnonzero(~fixed | (d == 0) | (n == 1e15))

    number = np.empty((x.size, 4), np.uint32)  # "0" and the 15 digits in 4-digit groups
    top = np.floor(n / 1e8)  # n < 2^50: each quotient is exact before the floor
    for j, half in enumerate((top, n - top * 1e8)):
        group = np.floor(half / 1e4)
        number[:, 2 * j] = digits.take(group.astype(np.intp))
        number[:, 2 * j + 1] = digits.take((half - group * 1e4).astype(np.intp))
    words = number.view(_WORD)
    # the byte of the last significant digit: the bit length of the digit
    # values (each below 16) over 8; byte 1 holds the nonzero leading digit
    _, bits = np.frexp((words ^ np.frombuffer(b"0" * 8, _WORD)).astype(np.float64))
    last = (np.where(bits[:, 1] > 0, bits[:, 1] + 64, bits[:, 0]) - 1) >> 3
    e += 4
    shifted_low, shifted_high, low, high, point_low, point_high = masks.take(e * 16 + last, axis=1)

    cells = np.empty((x.size, 3), _WORD)
    cells[:, 0] = head.take(e + 19 * (x < 0))
    first, second = words.T
    cells[:, 1] = ((first >> 8) | (second << 56)) & shifted_low | first & low | point_low
    cells[:, 2] = (second >> 8) & shifted_high | second & high | point_high
    text = cells.view(np.uint8)
    if slow.size:
        exact = ["%.15g" % v for v in x[slow].tolist()]
        text[slow, 1:] = np.array(exact, "S23").view(np.uint8).reshape(slow.size, -1)
    lines = text.reshape(block.shape[0], -1)
    lines[:, ::24] = ord(",")
    lines[:, 0] = ord("\n")
    # translate drops the pad in one pass; replace(b"\0", b"") pays per byte dropped
    return lines.tobytes().translate(None, b"\0").decode("ascii")
