"""CSV row text from numpy columns, every float exactly as ``repr`` prints it.

``repr`` prints the shortest decimal that reads back as the same double,
the closest one when several are shortest.  Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) finds those digits with three
128-bit products per value; here they run on uint64 arrays, one chunk of
rows at a time, so a float costs a few dozen array operations shared by the
whole chunk instead of one ``repr`` call.

Each value's text is one run of bytes in a fixed-width slot, one slot row
per value.  The digits come row-major from 4-digit groups looked up in a
table, right-aligned in the slot, with a zero put in where ``repr`` puts the
point: a value with integer part I and fraction digits F is written as the
integer I 0 F, and that '0' becomes '.'.  Below 1, I is 0 and a leading zero
of the slot prints it; in exponent notation I is the first digit, and
``e±XX`` follows in a second slot.  The text runs from the first digit of I
to the last non-zero digit of F (at least one, in fixed notation), so
f 10^e below 1 in fixed notation prints as "0." and then f right-aligned in
-e digits, trailing zeros dropped.  One table lookup per column gives the mask of those bytes;
the rest are set to NUL.  A chunk's rows are its columns' slots side by
side, a separator after each column, and its text is those bytes with the
NULs dropped.

Zero and positive normal doubles take this path, and non-negative integers
take its digit steps.  Everything else (negative, subnormal, infinite or
NaN values, negative integers) is rare in a table and takes ``repr``
itself.
"""
from __future__ import annotations

from functools import cache

import numpy as np

_ZERO, _DOT, _COMMA, _NEWLINE = b"0.,\n"
_M32 = 0xFFFF_FFFF
_M63 = (1 << 63) - 1
_K_MIN, _K_MAX = -324, 292  # decimal exponents k that positive normal doubles need
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)
_X_MIN, _X_MAX = -308, 308  # printed exponents of positive normal doubles
_BLOCK = 4096  # values per Schubfach pass


@cache
def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of i = 0..9999 packed in a uint32, and how many
    of them are trailing zeros.  The lookup tables are built on first use, so
    programs that print no CSV never touch them."""
    i = np.arange(10_000, dtype=np.uint16)
    quads = np.empty((i.size, 4), dtype=np.uint8)
    zeros = np.zeros(i.size, dtype=np.uint8)
    for j, p in enumerate((1000, 100, 10, 1)):
        quads[:, j] = i // p % 10 + _ZERO
        zeros += i % (10 * p) == 0
    tables = quads.view("<u4").ravel(), zeros
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


@cache
def _exp_table() -> np.ndarray:
    """``e±XX`` for the exponents x = _X_MIN.._X_MAX (row x - _X_MIN),
    NUL-padded to 5 bytes, and a last row of NULs.  Built on first use."""
    texts = [f"e{x:+03d}".encode() for x in range(_X_MIN, _X_MAX + 1)] + [b""]
    table = np.frombuffer(b"".join(t.ljust(5, b"\0") for t in texts), dtype=np.uint8)
    return table.reshape(-1, 5)  # read-only, as a view of bytes


def _flog2pow10(e):
    return (e * 913_124_641_741) >> 38  # floor(log2(10^e))


def _g(k: int) -> int:
    """g = floor(beta) + 1 where 10^-k = beta 2^r and 2^125 <= beta < 2^126."""
    r = _flog2pow10(-k) - 125
    return (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1


def _g_limbs(g: int) -> tuple[int, ...]:
    """g = g1 2^63 + g0 as g1, g0 and the 32-bit halves of each."""
    g1, g0 = g >> 63, g & _M63
    return g1, g0, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32


@cache
def _g_table() -> np.ndarray:
    """Rows g1, g0 and their halves, as in _g_limbs; column k - _K_MIN."""
    table = np.array([_g_limbs(_g(k)) for k in range(_K_MIN, _K_MAX + 1)], dtype=np.uint64).T
    table.flags.writeable = False  # shared by every caller
    return table


def _mulhi(ah, al, bh, bl):
    """High 64 bits of the product of a = ah 2^32 + al and b = bh 2^32 + bl."""
    lh = al * bh
    hl = ah * bl
    mid = (al * bl >> 32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _rop(x1, y0, y1):
    """floor(g cp / 2^127), rounded to odd when the remainder is not zero,
    from x1 = hi(g0 cp) and y1 2^64 + y0 = g1 cp (g = g1 2^63 + g0)."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shift_add(lo, hi, x, s, sign):
    """(lo, hi) of the 128-bit (hi 2^64 + lo) + sign x 2^s, 0 < s < 64."""
    xlo, xhi = x << s, x >> (64 - s)
    if sign > 0:
        new = lo + xlo
        return new, hi + xhi + (new < lo)
    return lo - xlo, hi - xhi - (lo < xlo)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10^k the decimal ``repr`` prints for each positive
    normal double given by its bits: the shortest that rounds to it, the
    closest among those, ties to an even f."""
    t = bits & ((1 << 52) - 1)
    be = (bits >> 52).astype(np.int64)
    c = t | (1 << 52)
    q = be - 1075  # the double is c 2^q
    # Above the smallest binade, c = 2^52 has a neighbour below it at half
    # the spacing, so its rounding interval is asymmetric.
    irregular = (t == 0) & (be > 1)
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) when irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0, g1h, g1l, g0h, g0l = _g_table().take(k - _K_MIN, axis=1)
    # The products of g with the interval's centre and ends (c, c - 1/2 or
    # c - 1/4, c + 1/2, each times 4 2^h): the centre's by 32-bit halves,
    # the ends' from it, by adding or subtracting a shifted g.
    cp = c << (h + 2)
    ch, cl = cp >> 32, cp & _M32
    x0, x1 = g0 * cp, _mulhi(g0h, g0l, ch, cl)
    y0, y1 = g1 * cp, _mulhi(g1h, g1l, ch, cl)
    vb = _rop(x1, y0, y1)
    vbl = _rop(_shift_add(x0, x1, g0, h + 1 - irregular, -1)[1],
               *_shift_add(y0, y1, g1, h + 1 - irregular, -1))
    vbr = _rop(_shift_add(x0, x1, g0, h + 1, 1)[1], *_shift_add(y0, y1, g1, h + 1, 1))
    out = c & 1  # an even c keeps the interval's end points
    s = vb >> 2
    # One digit shorter: the multiples of 10 around s, when exactly one of
    # them lies in the rounding interval.
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl + out <= sp10 << 2
    wpin = (tp10 << 2) + out <= vbr
    # Else s or s + 1: the one in the interval, or the closer one when both are.
    uin = vbl + out <= s << 2
    win = ((s + 1) << 2) + out <= vbr
    cmp = vb.astype(np.int64) - ((2 * s + 1) << 1).astype(np.int64)
    up = np.where(uin != win, win, (cmp > 0) | ((cmp == 0) & ((s & 1) == 1)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), s + up)
    return f, k


@cache
def _keep_table(width: int) -> np.ndarray:
    """Row start (width + 1) + end is True on the bytes start..end - 1 of a
    width-byte slot.  Built on first use for each width."""
    j = np.arange(width)
    bound = np.arange(width + 1)
    table = ((bound[:, None, None] <= j) & (j < bound[None, :, None])).reshape(-1, width)
    table.flags.writeable = False
    return table


def _groups(f: np.ndarray, count: int) -> np.ndarray:
    """(size, count) 4-digit groups of uint64 values below 10^(4 count),
    most significant first."""
    g = np.empty((f.size, count), dtype=np.intp)
    for j in range(count - 1, 0, -1):
        q = f // 10 ** 4  # numpy divides by a constant faster than it takes a remainder
        g[:, j] = f - q * 10 ** 4
        f = q
    g[:, 0] = f
    return g


def _trailing_zeros(g: np.ndarray) -> np.ndarray:
    """Trailing zero digits of the numbers given by their groups, all of them
    for 0.  Few numbers end in a zero group, so only those rows go on."""
    quad_zeros = _quad_tables()[1]
    zeros = quad_zeros.take(g[:, -1])  # 4 for a zero group
    rest = np.flatnonzero(zeros == 4)
    for j in range(g.shape[1] - 2, -1, -1):
        if not rest.size:
            break
        more = quad_zeros.take(g[rest, j])
        zeros[rest] += more
        rest = rest[more == 4]
    return zeros


def _pieces(values: np.ndarray) -> list[np.ndarray]:
    """The texts of a flat array of numbers, all floats or all integers, as
    byte slots, one row per value, with NUL in every byte not printed.
    Floats in exponent notation have a second slot."""
    is_float = values.dtype.kind == "f"
    if is_float:
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
        be = bits >> 52  # sign bit included: 1..0x7FE for positive normals
        special = (bits != 0) & ((be == 0) | (be >= 0x7FF))
        zero = special | (bits == 0)
        bits = np.where(special, 1 << 62, bits)  # 2.0 stands in
        # In blocks, whose temporaries stay in cache.
        f, k = map(np.concatenate, zip(*(_shortest(bits[i:i + _BLOCK])
                                         for i in range(0, max(bits.size, 1), _BLOCK))))
        # Schubfach's k puts f in [2^52, 10 2^53): 16 or 17 digits.
        top = (f >= 10 ** 16).astype(np.int16)
        top += 16
        f[zero] = 0  # prints as 0.0
        k[zero] = 0
        top[zero] = 1
        k = k.astype(np.int16)
        decpt = k + top  # value = 0.d1d2... 10^decpt
        exp = (decpt <= -4) | (decpt > 16)
        fixed = ~exp
        # Fraction digits: those of f after its first (exponent notation) or
        # after the point, at least one in fixed notation.
        frac = np.where(exp, top - 1, np.maximum(-k, 1))
        # A whole value in fixed notation prints f 10^k and then '.0'.
        f *= _POW10.take(np.where(fixed & (k >= 0), k + 1, 0))
        p = _POW10.take(frac, mode="clip")  # 10^19 for 20 digits, all of f
        f += 9 * (f // p) * p  # the zero where the point goes
        length = np.where(exp, 1, np.maximum(decpt, 1)) + 1 + frac
    else:
        special = values < 0
        f = np.where(special, 0, values).astype(np.uint64)
        length = np.maximum(np.searchsorted(_POW10, f, side="right").astype(np.int16), 1)
    width = 4 * -(-int(length.max(initial=1)) // 4)
    g = _groups(f, width // 4)
    text = _quad_tables()[0].take(g).view(np.uint8)
    start = width - length
    if is_float:
        dot = width - 1 - frac
        text.ravel()[np.arange(0, text.size, width) + dot] = _DOT
        # Up to the last non-zero digit; in fixed notation the first fraction
        # digit too (the 0 of "1.0").
        end = np.maximum(width - _trailing_zeros(g), dot + 2 * fixed)
    else:
        end = np.full(f.size, width)
    fallback = np.flatnonzero(special)
    if fallback.size:
        texts = [repr(v).encode("ascii") for v in values[fallback].tolist()]
        wide = max(width, *map(len, texts)) - width
        if wide:
            text = np.concatenate((np.empty((f.size, wide), dtype=np.uint8), text), axis=1)
            width, start, end = width + wide, start + wide, end + wide
        for i, t in zip(fallback.tolist(), texts):
            text[i, :len(t)] = np.frombuffer(t, dtype=np.uint8)
        start[fallback] = 0
        end[fallback] = list(map(len, texts))
    text *= _keep_table(width).take(start * (width + 1) + end, axis=0)
    if not (is_float and exp.any()):
        return [text]
    return [text, _exp_table().take(np.where(exp, decpt - 1 - _X_MIN, -1), axis=0)]


def rows_text(columns) -> str:
    """CSV lines, one per row, of ``columns``: equal-length numpy arrays of
    floats or integers, or None for a column left empty.

    Meant for a chunk of rows at a time: memory is about a hundred bytes per
    value.
    """
    columns = [None if c is None else np.asarray(c) for c in columns]
    rows = next(c.size for c in columns if c is not None)
    # Columns of one dtype kind are formatted together, which saves the fixed
    # cost of each array operation once per column.
    parts: dict = {}
    for i, c in enumerate(columns):
        if c is not None:
            parts.setdefault(c.dtype.kind, []).append(i)
    slots: list[list] = [[] for _ in columns]
    for idx in parts.values():
        values = columns[idx[0]] if len(idx) == 1 else np.concatenate([columns[i] for i in idx])
        for text in _pieces(values):
            for c, i in enumerate(idx):
                slots[i].append(text[c * rows:(c + 1) * rows])
    # Each column's slots side by side and a separator after them; the NULs
    # between texts are dropped at the end.
    buf = np.empty((rows, sum(t.shape[1] for column in slots for t in column) + len(columns)),
                   dtype=np.uint8)
    o = 0
    for column, sep in zip(slots, [_COMMA] * (len(columns) - 1) + [_NEWLINE]):
        for text in column:
            buf[:, o:o + text.shape[1]] = text
            o += text.shape[1]
        buf[:, o] = sep
        o += 1
    return buf.tobytes().translate(None, b"\0").decode("ascii")
