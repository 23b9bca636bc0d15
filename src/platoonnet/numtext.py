"""Text of float arrays, spelled as Python spells each float, in bulk.

`number_cells(part, json_style)` turns a 1-D float array into a
`(cells, width)` uint8 matrix whose rows hold the text of each cell, padded
with 0xFF bytes, which UTF-8 text never contains.  The text is `repr` of
each entry of `part.tolist()` (json.dumps in JSON, which differs only in
NaN, Infinity and -Infinity).

A float gets the shortest digits that read back as the same double, and of
those the closest to its exact value (ties to an even last digit): the rule
of Python's `repr`.  The digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020), computed on whole arrays:

- A double v = c 2^q has the rounding interval R of the reals that read back
  as v, closed when c is even.  With k = floor(log10(width of R)), R 10^-k
  is 1 to 10 wide, so it holds at most one multiple of 10, and the floor s
  of v 10^-k or s + 1 lies in it.  The multiple of 10 is the shortest choice
  when it is there; otherwise the one of s and s + 1 in R, or the closer if
  both are.
- 4 v 10^-k and the bounds of 4 R 10^-k are round-to-odd products of
  4c 2^h with g, a 126-bit upper approximation of 10^-k (`rop` in the
  paper).  The 64 x 128-bit products are emulated with 32-bit halves in
  uint64, and those of the bounds are the product of 4c 2^h moved by g 2^s.
  k, h and g depend only on the binary exponent, and are computed exactly
  from Python ints when an exponent first occurs.

Text is built eight bytes to a uint64 word, first byte lowest, as strings
of up to three words: digits are spread into the bytes of a word with
multiply-and-shift steps, and a point, a prefix, an exponent or a sign goes
in by shifting words.  The CLI imports this module when it first writes a
chunk of 256 or more floats, so runs that write none do not compile it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_LOW63 = _U64((1 << 63) - 1)
_INF = _U64(0x7FF << 52)  # bits of +inf; larger magnitudes are NaN
_ZEROS = _U64(0x3030303030303030)  # "00000000"
_NONFINITE = {False: (b"nan", b"inf"), True: (b"NaN", b"Infinity")}


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


@cache
def _scales(key: int) -> tuple[int, int, int]:
    """8 k + h, g0 and g1 (g = g1 2^63 + g0) for the doubles whose biased
    exponent is key // 2 (0 read as 1) and, if key is odd, whose fraction is
    zero: their interval reaches 1/4 of the gap below and 1/2 above.
    k = floor(log10(2^q)), or floor(log10(3/4 2^q)) if irregular, and
    floor(log2(10^-k)) by Schubfach's fixed-point products, which are exact
    over the exponents of doubles (tests check every key with fractions)."""
    q = max(key // 2, 1) - 1075
    k = q * 661971961083 - key % 2 * 274743187321 >> 41
    # 10^-k = beta 2^r with 2^125 <= beta < 2^126; g = floor(beta) + 1
    r = (-k * 913124641741 >> 38) - 125
    g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
    return k << 3 | q + r + 127, g & (1 << 63) - 1, g >> 63


def _high(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of a b, a < 2^63 and b < 2^60 given as 32-bit halves; the
    middle sum of three products cannot overflow at these widths."""
    return a_hi * b_hi + (a_lo * b_hi + a_hi * b_lo + (a_lo * b_lo >> 32) >> 32)


def _round_odd(x1, y0, y1):
    """`rop`: cp g / 2^127 rounded to odd, from the high half x1 of g0 cp and
    the halves y1, y0 of g1 cp."""
    z = (y0 >> 1) + x1
    return y1 + (z >> 63) | ((z & _LOW63) + _LOW63) >> 63


def _moved(high, low, g, shift, up: bool):
    """The 128-bit (high, low) plus or minus g 2^shift, 0 < shift < 64."""
    part, carry = g << shift, g >> 64 - shift
    if up:
        moved = low + part
        return high + carry + (moved < low), moved
    moved = low - part
    return high - carry - (moved > low), moved


def _products(g0, g1, cp):
    """g0 cp and g1 cp as (high, low) halves."""
    lo, hi = cp & _LOW32, cp >> 32
    return ((_high(g0 & _LOW32, g0 >> 32, lo, hi), g0 * cp),
            (_high(g1 & _LOW32, g1 >> 32, lo, hi), g1 * cp))


def _bound(x, y, g0, g1, shift, up: bool):
    """`rop` of (cp +- 2^shift) g, from the halves x of g0 cp and y of g1 cp."""
    high, low = _moved(*y, g1, shift, up)
    return _round_odd(_moved(*x, g0, shift, up)[0], low, high)


def _shortest(bits):
    """(d, k) with d 10^k the shortest round-trip decimal of each positive
    finite double given by its bits, closest to it among the shortest; d has
    the scale of the interval, with any trailing zeros."""
    biased = bits >> 52
    fraction = bits & _U64((1 << 52) - 1)
    c = fraction | np.minimum(biased, 1) << 52
    irregular = (fraction == 0) & (biased > 1)
    key = (biased << 1 | irregular).astype(np.intp)
    del biased, fraction
    present = np.zeros(4096, bool)
    present[key] = True
    distinct = np.flatnonzero(present)
    table = np.empty((3, 4096), np.int64)
    table[:, distinct] = np.array([_scales(x) for x in distinct.tolist()]).T
    k, g0, g1 = (row[key] for row in table)
    del key, table
    h = (k & 7).view(np.uint64)
    k >>= 3
    g0, g1 = g0.view(np.uint64), g1.view(np.uint64)

    # 4 v 10^-k; then the bounds, from cp + 2^(h+1) and cp - 2^(h+1), or
    # cp - 2^h if irregular: the least and the greatest integer in 4 R 10^-k
    h += 1
    x, y = _products(g0, g1, c << h + 1)
    vb = _round_odd(x[0], y[1], y[0])
    odd = c & 1
    vbl = _bound(x, y, g0, g1, h - irregular, False) + odd
    vbr = _bound(x, y, g0, g1, h, True) - odd
    del x, y, g0, g1, h, c, odd

    s = vb >> 2
    sp10 = s // 10 * 10
    sp4 = sp10 << 2
    up_in = vbl <= sp4
    ten = up_in != (sp4 + 40 <= vbr)  # one multiple of 10 in R
    s4 = vb & ~_U64(3)
    # s is closer than s + 1, or as close and even, by the low 3 bits of vb:
    # 0, 1, 2, 4 and 5, the bits set in 0x37
    closer = _U64(0x37) >> (vb & 7) & 1
    take_s = (vbl <= s4) & ((s4 + 4 > vbr) | closer)  # 0 or 1
    return np.where(ten, np.where(up_in, sp10, sp10 + 10), s + 1 - take_s), k


def _digits8(x):
    """The eight decimal digits of each x < 10^8, one to a byte of a word,
    the most significant first."""
    high = x * 109951163 >> 40  # x // 10^4
    v = high | (x - high * 10000) << 32
    q = v * 10486 >> 20 & _U64(0x0000007F0000007F)  # // 100 in each half
    v = q | (v - q * 100) << 16
    q = v * 103 >> 10 & _U64(0x000F000F000F000F)  # // 10 in each quarter
    return q | (v - q * 10) << 8


def _bytes_used(word):
    """Bytes up to the last nonzero one of words whose bytes are below 16
    (the float conversion then keeps the highest set bit); below -100 for
    a zero word."""
    return (word.astype(np.float64).view(np.int64) >> 52) - 1015 >> 3


@cache
def _forms():
    """Per decimal exponent decpt (value 0.ddd 10^decpt) from -4 to 17, which
    stand for all below and above, and whether there is more than one digit,
    at 2 (decpt + 4) + more: the masks of the first `split` bytes, kept in
    place (two words), the text inserted after them (three words), the least
    number of digits shown, and the number of bytes inserted.  1234.5 splits
    after decpt digits and inserts "."; 0.0012345 before the first digit and
    inserts "0.00"; 1.2345e+67 after the first digit (and the exponent goes
    after the digits)."""
    rows = []
    for index in range(44):
        decpt, more = divmod(index, 2)
        decpt -= 4
        if -3 <= decpt <= 16:
            split, least = max(decpt, 0), max(decpt + 1, 0)
            insert = b"." if decpt > 0 else b"0.000"[: 2 - decpt]
        else:
            split, least, insert = 1, 0, b"." if more else b""
        rows.append([*((1 << 8 * min(max(split - 8 * i, 0), 8)) - 1 for i in range(2)),
                     *(_word(insert) << 8 * split >> 64 * i & (1 << 64) - 1 for i in range(3)),
                     least, len(insert)])
    return np.array(rows, np.uint64).T.copy()


@cache
def _exponents():
    """The exponent text (e+XX, e-XX, e+XXX or e-XXX) as a word and its
    length at decpt + 324, empty where decpt is in -3..16."""
    texts = [b"" if -3 <= decpt <= 16 else b"e%+03d" % (decpt - 1) for decpt in range(-324, 310)]
    return np.array([list(map(_word, texts)), list(map(len, texts))], np.uint64)


@cache
def _ends():
    """Per length n: the masks of the first n bytes of three words, then the
    left and the right shifts that put a word at byte n of each."""
    left = np.clip(8 * np.arange(25) - 64 * np.arange(3)[:, None], 0, 64).astype(np.uint64)
    right = np.clip(64 * np.arange(3)[:, None] - 8 * np.arange(25), 0, 64).astype(np.uint64)
    return np.concatenate([(_U64(1) << left) - _U64(1), left, right])


def _text(strings, length, neg):
    """The text matrix of the strings, a minus sign put before the negative
    ones, each padded with 0xFF bytes to the longest."""
    if neg.any():  # a float's text is at most 23 bytes before its sign
        one = neg.astype(np.uint64)
        up = one << 3
        strings = [strings[0] << up | one * ord("-")] + [
            word << up | prev >> 64 - up for prev, word in zip(strings, strings[1:])]
        length = length + neg
    ends = _ends()
    strings = [word | ~ends[i][length] for i, word in enumerate(strings)]
    text = np.stack(strings, axis=1).astype("<u8", copy=False).view(np.uint8)
    return text[:, : int(length.max(initial=0))]


def _digit_words(d, k, plain):
    """The 17 digits of each d (0 where not plain), left-aligned in three
    words; how many there are up to the last nonzero one; and decpt, with
    d 10^k = 0.ddd 10^decpt (1 where not plain: "0.0")."""
    if (d < _U64(10**15)).any():  # subnormals: up to 17 digits
        lead = np.searchsorted(10 ** np.arange(18, dtype=np.uint64), d, side="right")
        decpt = k + lead
        scaled = d * (10 ** (17 - lead)).astype(np.uint64)
    else:  # normal doubles: 16 or 17 digits
        short = d < _U64(10**16)
        decpt = k + 17 - short
        scaled = np.where(short, d * 10, d)
    if not plain.all():
        scaled[~plain] = 0
        decpt[~plain] = 1
    top = scaled // _U64(10**9)
    rest = scaled - top * _U64(10**9)
    mid = rest * 0xCCCCCCCD >> 35  # rest // 10
    last = rest - mid * 10
    top, mid = _digits8(top), _digits8(mid)
    # (a zero word reads as a negative count of bytes)
    count = np.maximum(np.maximum(_bytes_used(mid) + 8, _bytes_used(top)), (last != 0) * 17)
    return [top | _ZEROS, mid | _ZEROS, last | 0x30], count, decpt


def _laid_out(strings, count, decpt):
    """The digit strings with the point, the leading "0.000" or the exponent
    put in (see `_forms`), and their lengths."""
    form = ((np.clip(decpt, -4, 17) + 4) << 1) + (count > 1)
    table = _forms()
    length = np.maximum(count, table[5][form].view(np.int64))
    inserted = table[6][form]
    heads = [strings[0] & table[0][form], strings[1] & table[1][form]]
    tails = [strings[0] ^ heads[0], strings[1] ^ heads[1], strings[2]]
    up = inserted << 3
    strings = [heads[0] | tails[0] << up | table[2][form],
               heads[1] | tails[1] << up | tails[0] >> 64 - up | table[3][form],
               tails[2] << up | tails[1] >> 64 - up | table[4][form]]
    length += inserted.view(np.int64)
    if ((decpt + 3).view(np.uint64) >= 20).any():  # exponents after the digits
        ends, (exponent, size) = _ends(), _exponents()[:, decpt + 324]
        strings = [word & ends[i][length] | exponent << ends[3 + i][length] >> ends[6 + i][length]
                   for i, word in enumerate(strings)]
        length += size.view(np.int64)
    return strings, length


def number_cells(part: np.ndarray, json_style: bool = False) -> np.ndarray:
    """Text matrix of a 1-D float array, each row the text of a cell padded
    with 0xFF bytes: `repr` of the entry of `part.tolist()`, or json.dumps
    if `json_style`; float16 and float32 are widened to float64 first, as
    tolist() does."""
    with np.errstate(invalid="ignore"):  # a signalling NaN of float16 or float32
        bits = np.ascontiguousarray(part, np.float64).view(np.uint64)
    magnitude = bits & _LOW63
    plain = magnitude - 1 < _INF - 1  # neither zero nor inf nor NaN
    neg = bits > _LOW63
    if plain.all():
        strings, length = _laid_out(*_digit_words(*_shortest(magnitude), plain))
    else:
        neg &= magnitude <= _INF  # NaN has no sign
        strings, length = _laid_out(*_digit_words(
            *_shortest(np.where(plain, magnitude, _U64(0x3FF << 52))), plain))
        for spelled, rows in zip(_NONFINITE[json_style], (magnitude > _INF, magnitude == _INF)):
            for word, value in zip(strings, (_word(spelled), 0, 0)):
                word[rows] = value
            length[rows] = len(spelled)
    return _text(strings, length, neg)

