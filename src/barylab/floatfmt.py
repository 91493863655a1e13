"""CSV cells rendered from numpy columns, byte for byte as Python's `repr`.

`csv_rows(columns)` turns equally long float and integer columns into the
CSV rows "c1,c2,...,cm\\n", each cell exactly `repr` of its value as a
Python float or int, without making a Python object per cell.

Floats take the shortest round-trip digits from Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020; Java's `Double.toString`
since JDK 19): three 64 x 128-bit products of the significand with a
rounded-up power of ten g, done in uint64 words on a whole array.  Two
rules make the digits Python's `repr` rather than Java's:

- the one-digit-shorter candidate is tried whenever s >= 10 (Java: s >=
  100, because Java always keeps two digits), so 5e-324 reads "5e-324";
- a subnormal enters as (Q_MIN, t), with no x10 step.

The layout is `repr`'s: fixed notation for 1e-4 <= |x| < 1e16, with ".0"
after an integral value and "0." before a value below 1; otherwise
d.ddde+XX, with at least two exponent digits; "nan", "inf", "-inf",
"-0.0".

Each cell fills four little-endian uint64 words (32 bytes): the sign and a
"0.000" prefix in bytes 0-5, the 17 digits of D (the value is D 10^e)
right-aligned in bytes 7-23, the fraction digits moved up one byte to make
room for the point, then "0" after an integral value's point, the exponent
and the separator.  Digits come from SWAR arithmetic, eight per word; the
integer and fraction parts are masks of the same digit words.  Bytes no
character fills are NUL, which no cell contains, so a block's text is its
bytes with the NULs dropped.
"""

from __future__ import annotations

import itertools

import numpy as np

_U = np.uint64
M32 = _U(0xFFFFFFFF)
M63 = _U((1 << 63) - 1)
H7F = _U(0x7F7F7F7F7F7F7F7F)
H80 = _U(0x8080808080808080)
ASCII0 = _U(0x3030303030303030)
T_MASK = _U((1 << 52) - 1)
POW10 = np.array([10 ** i for i in range(20)], dtype=_U)
SEPARATORS = (_U(ord(",") << 56), _U(ord("\n") << 56))


def _word(text, at=0):
    """uint64 holding ASCII `text` from byte `at` on (little-endian)."""
    return int.from_bytes(text.encode(), "little") << (8 * at)


def _flog10pow2(q):
    return (q * 661971961083) >> 41  # floor(log10(2^q)), |q| <= 5456721


def _flog10_three_quarters_pow2(q):
    return (q * 661971961083 - 274743187321) >> 41  # floor(log10(3/4 2^q))


def _flog2pow10(e):
    return (e * 913124641741) >> 38  # floor(log2(10^e)), |e| <= 1233


def _schubfach_table():
    """Per 2 * biased exponent + irregular (a power of two above the least
    normal, whose interval is lopsided), the rows:

    0-1   g1, g0: the 63-bit halves of g = floor(10^-k 2^(125 - r)) + 1,
          r = flog2pow10(-k), in [2^125, 2^126)
    2-3   low words of g1 2^jl, g0 2^jl, where 2^jl = cp - cpl
    4-5   high words of the same
    6-9   low and high words of g1 2^jr, g0 2^jr, where 2^jr = cpr - cp
    10    2 + h, the shift taking the significand c to cp = 4c 2^h
    11    k, the decimal exponent of the digits (two's complement)
    12    the hidden bit of the significand
    """
    k_min = _flog10pow2(-1074)
    ks = range(k_min, _flog10pow2(972) + 1)
    g = []
    for k in ks:
        shift = 125 - _flog2pow10(-k)
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        g.append((num << max(shift, 0)) // (den << max(-shift, 0)) + 1)
    g1 = np.array([x >> 63 for x in g], dtype=_U)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=_U)
    index = np.arange(4096, dtype=np.int64)
    bq, irregular = index >> 1, index & 1
    q = np.maximum(bq, 1) - 1075
    k = np.where(irregular == 1, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = q + _flog2pow10(-k) + 2
    g1, g0 = g1[k - k_min], g0[k - k_min]
    jl, jr = (h + 1 - irregular).astype(_U), (h + 1).astype(_U)
    return np.array([
        g1, g0,
        g1 << jl, g0 << jl, g1 >> (_U(64) - jl), g0 >> (_U(64) - jl),
        g1 << jr, g0 << jr, g1 >> (_U(64) - jr), g0 >> (_U(64) - jr),
        (h + 2).astype(_U), k.astype(np.int64).view(_U),
        np.where(bq > 0, 1 << 52, 0).astype(_U),
    ])


SCHUBFACH = _schubfach_table()


def _layout_table():
    """Per decimal point position decpt (|x| = 0.ddd 10^decpt) from -400
    on, the rows: the point's offset from the first digit (decpt in fixed
    notation above 1, none below 1, one in scientific notation), the "0."
    prefix below 1, the exponent word, and all-ones masks for fixed
    notation above 1 and for scientific notation."""
    rows = [[] for _ in range(5)]
    for decpt in range(-400, 400):
        fixed_int, fixed_frac = 1 <= decpt <= 16, -4 < decpt <= 0
        sci = not (fixed_int or fixed_frac)
        rows[0].append(decpt if fixed_int else int(sci))
        rows[1].append(_word("0." + "0" * -decpt, 1) if fixed_frac else 0)
        rows[2].append(_word("e%+03d" % (decpt - 1), 2) if sci else 0)
        rows[3].append((1 << 64) - 1 if fixed_int else 0)
        rows[4].append((1 << 64) - 1 if sci else 0)
    return np.array(rows, dtype=_U)


LAYOUT = _layout_table()
DECPT_MIN = -400


def _span_table():
    """Per (first digit byte f, point byte p), f, p in 0..24, the rows:
    0-2  bytes [f, p) of words 0-2 (the integer part)
    3-5  bytes >= p of words 0-2 (the fraction)
    6-9  a "." in byte p of words 0-3"""
    f, p = np.divmod(np.arange(625), 25)
    byte = np.arange(32)
    head = ((byte >= f[:, None]) & (byte < p[:, None])) * 0xFF
    tail = ((byte >= p[:, None]) & (byte < 24)) * 0xFF
    dot = (byte == p[:, None]) * ord(".")
    words = [m.astype(np.uint8).view("<u8") for m in (head, tail, dot)]  # (625, 4)
    rows = np.concatenate([words[0][:, :3], words[1][:, :3], words[2]], axis=1).T
    return np.ascontiguousarray(rows, dtype=_U)


SPANS = _span_table()


def _shortest(bits):
    """Shortest round-trip digits D < 10^17 and decimal exponent e of each
    finite nonzero |x| = D 10^e, for the uint64 bit patterns of x; other
    patterns give arbitrary values."""
    t = bits & T_MASK
    bq = (bits >> 52) & _U(0x7FF)
    index = ((bq << 1) + ((t == 0) & (bq > 1))).view(np.int64)
    row = SCHUBFACH.take(index, axis=1)
    c = t | row[12]
    cp = c << row[10]
    # g1 cp and g0 cp exactly, as high and low words (rows 0 and 1)
    hi = _mulhi(row[0:2], cp & M32, cp >> 32)
    lo = row[0:2] * cp
    # g cpl and g cpr differ from g cp by g times a power of two
    lo_l = lo - row[2:4]
    hi_l = hi - row[4:6] - (lo_l > lo)
    lo_r = lo + row[6:8]
    hi_r = hi + row[8:10] + (lo_r < lo)
    vb = _rop(hi, lo)
    vbl = _rop(hi_l, lo_l)
    vbr = _rop(hi_r, lo_r)
    # closed interval for an even significand
    lower = vbl + (c & _U(1))
    upper = vbr - (c & _U(1))
    s = vb >> 2
    sp10 = (s // _U(10)) * _U(10)
    sp40 = sp10 << 2
    upin = lower <= sp40
    shorter = (s >= 10) & (upin != (sp40 + _U(40) <= upper))
    s4 = s << 2
    up = (lower > s4) | ((s4 + _U(4) <= upper) & (vb + (s & _U(1)) > s4 + _U(2)))
    long = s + up
    digits = long + shorter * (sp10 + _U(10) * ~upin - long)
    return digits, row[11].view(np.int64)


def _mulhi(a, b0, b1):
    """High words of a (b1 2^32 + b0), for uint64 a and 32-bit b0, b1."""
    a0, a1 = a & M32, a >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & M32) + (p10 & M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _rop(hi, lo):
    """Giulietti's rop from the exact products g1 cp (hi[0], lo[0]) and
    g0 cp (hi[1]): floor(g1 cp / 2) + floor(g0 cp / 2^64), shifted right
    by 63 bits, with a sticky low bit."""
    z = (lo[0] >> 1) + hi[1]
    return (hi[0] + (z >> 63)) | (((z & M63) + M63) >> 63)


def _swar8(x):
    """Digit values (0-9) of each x < 10^8, one per byte, most significant
    first in memory (little-endian)."""
    hi = x // _U(10000)
    v = hi | ((x - hi * _U(10000)) << 32)
    q = ((v * _U(10486)) >> 20) & _U(0x0000007F0000007F)
    v = q | ((v - q * _U(100)) << 16)
    q = ((v * _U(103)) >> 10) & _U(0x000F000F000F000F)
    return q | ((v - q * _U(10)) << 8)


def _field(x):
    """(3, n) words holding the last 16 digits of each x in bytes 8-23
    (digit values, leading zeros included), and x // 10^16."""
    field = np.empty((3, x.size), dtype=_U)
    top = x // _U(10 ** 16)
    rest = x - top * _U(10 ** 16)
    mid = rest // _U(10 ** 8)
    field[1] = mid
    field[2] = rest - mid * _U(10 ** 8)
    field[1:] = _swar8(field[1:])
    return field, top


def _trailing_table():
    """Per float64 exponent field of a digit word, the full-byte mask of
    the bytes at or below the byte holding its highest set bit (the last
    nonzero digit).  A digit word converts to float64 without carrying into
    a higher power of two: bits 4-7 of each of its bytes are clear."""
    table = np.zeros(2048, dtype=_U)
    for bit in range(64):
        table[1023 + bit] = (1 << (8 * (bit // 8 + 1))) - 1
    return table


TRAILING = _trailing_table()


def _float_words(x, out):
    """Write the words of repr(float) for the float64 values of x into out,
    an array of x.shape + (4,)."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(_U).reshape(-1)
    digits, e = _shortest(bits)
    field, top = _field(digits)
    field[0] = top << 56
    # a normal value has 16 or 17 digits, a subnormal 1 to 17
    ndigits = 16 + (top != 0)
    subnormal = (bits & _U(0x7FF << 52)) == 0
    if subnormal.any():
        ndigits[subnormal] = np.searchsorted(POW10, digits[subnormal], "right")
    decpt = ndigits + e
    layout = LAYOUT.take(decpt - DECPT_MIN, axis=1, mode="clip")
    first = 24 - ndigits
    point = first + layout[0].view(np.int64)
    span = SPANS.take(first * 25 + point, axis=1, mode="clip")
    ascii_ = field | ASCII0
    # word 0 holds at most the first digit (byte 7), which lies at or
    # before the last nonzero digit
    trailing = TRAILING.take(field[1:].astype(np.float64).view(_U) >> 52)
    trailing[0] |= -(field[2] != 0).astype(_U)
    tail = ascii_ & span[3:6]
    tail[1:] &= trailing
    has_tail = -((tail[0] | tail[1] | tail[2]) != 0).astype(_U)
    moved = tail << 8
    moved[1:] |= tail[:2] >> 56
    dots = span[6:10] & (layout[3] | (layout[4] & has_tail))
    moved |= dots[:3]
    moved[0] |= layout[1] | ((bits >> 63) * _U(ord("-")))
    words = np.moveaxis(out, -1, 0)  # (4,) + x.shape
    cells = (3,) + x.shape
    np.bitwise_or((ascii_ & span[0:3]).reshape(cells), moved.reshape(cells), out=words[:3])
    word3 = (tail[2] >> 56) | dots[3] | layout[2] | (_U(_word("0", 1)) & layout[3] & ~has_tail)
    words[3] = word3.reshape(x.shape)
    special = ((bits & _U(0x7FF << 52) == _U(0x7FF << 52)) | (bits << 1 == 0)).reshape(x.shape)
    if special.any():
        words[:, special] = _special_words(bits[special.reshape(-1)])


SPECIALS = np.array([_word("0.0", 1), _word("inf", 1), _word("nan", 1)], dtype=_U)


def _special_words(bits):
    """Words of +-0.0, +-inf and NaN (whose repr has no sign)."""
    kind = ((bits << 1) != 0).astype(np.int64) + ((bits << 1) > _U(0x7FF << 53))
    words = np.zeros((4, bits.size), dtype=_U)
    words[0] = SPECIALS[kind] | ((bits >> 63) * (kind < 2) * _U(ord("-")))
    return words


def _int_words(x, out):
    """Write the words of repr(int) for the int64 values of x into out, an
    array of x.shape + (4,)."""
    v = np.ascontiguousarray(x, dtype=np.int64).reshape(-1)
    negative = (v < 0).astype(_U)
    field, top = _field((v.view(_U) ^ -negative) + negative)  # |v|, also for -2^63
    hundreds = top // _U(100)
    tens = (top - hundreds * _U(100)) // _U(10)
    field[0] = (hundreds << 40) | (tens << 48) | ((top - hundreds * _U(100) - tens * _U(10)) << 56)
    lead = (field + H7F) & H80
    lead |= lead << 8
    lead |= lead << 16
    lead |= lead << 32
    lead[1] |= (lead[0] >> 63) * H80
    lead[2] |= (lead[1] >> 63) * H80 | _U(0x80 << 56)  # 0 keeps its digit
    field |= ASCII0
    field &= (lead >> 7) * _U(0xFF)
    field[0] |= negative * _U(ord("-"))
    words = np.moveaxis(out, -1, 0)
    words[:3] = field.reshape((3,) + x.shape)
    words[3] = 0


def csv_rows(columns):
    """CSV text of equally long 1-D float and integer numpy columns: one
    line per row, cells joined by "," and each `repr` of its value.  Each
    run of adjacent float or integer columns is rendered in one pass."""
    rows, ncols = len(columns[0]), len(columns)
    words = np.empty((rows, ncols, 4), dtype="<u8")
    j = 0
    for is_float, run in itertools.groupby(columns, key=lambda col: col.dtype.kind == "f"):
        run = list(run)
        render = _float_words if is_float else _int_words
        render(np.column_stack(run), words[:, j:j + len(run)])
        j += len(run)
    words[:, :-1, 3] |= SEPARATORS[0]
    words[:, -1, 3] |= SEPARATORS[1]
    raw = words.view(np.uint8).reshape(-1)
    return raw[raw != 0].tobytes().decode("ascii")
