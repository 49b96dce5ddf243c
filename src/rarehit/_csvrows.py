"""CSV row text from numpy columns, every float exactly as ``repr`` prints it.

``repr`` prints the shortest decimal that reads back as the same double,
the closest one when several are shortest.  Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) finds those digits with three
128-bit products per value; here they run on uint64 arrays, one column of a
chunk of rows at a time, so a float costs a few dozen array operations
shared by the whole chunk instead of one ``repr`` call.  Digits are laid
out as ``repr`` lays them out (fixed notation for -4 < decpt <= 16, else
``d.ddde+XX``) and scattered into one '0'-filled byte buffer per chunk.

Zero and positive normal doubles take this path, and non-negative integers
take its digit and layout steps.  Everything else (negative, subnormal,
infinite or NaN values, negative integers) is rare in a table and takes
``repr`` itself.
"""
from __future__ import annotations

from functools import cache

import numpy as np

_ZERO, _DOT, _E, _PLUS, _MINUS, _COMMA, _NEWLINE = b"0.e+-,\n"
_M32 = 0xFFFF_FFFF
_M63 = (1 << 63) - 1
_K_MIN, _K_MAX = -324, 292  # decimal exponents k that positive normal doubles need
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)


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


def _divmod(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """x // d and x % d: numpy divides by a constant several times faster
    than it takes the remainder."""
    q = x // d
    return q, x - q * d


def _digits(f: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(width, size) ASCII digits of uint64 values below 10^width, most
    significant first, and how many of them are trailing zeros (all, and
    more, for 0), from 4-digit groups looked up in tables."""
    quads, quad_zeros = _quad_tables()
    groups = []
    for _ in range((width - 1) // 4):  # peel off 4-digit groups, least significant first
        f, g = _divmod(f, 10 ** 4)
        groups.append(g)
    groups = [g.astype(np.intp) for g in [f] + groups[::-1]]
    zeros = np.zeros(f.size, dtype=np.uint8)
    for g in groups:
        zeros = np.where(g == 0, zeros + 4, quad_zeros.take(g))
    digits = np.stack([quads.take(g) for g in groups]).view(np.uint8)  # (groups, 4 size)
    rows = 4 * len(groups)
    return digits.reshape(-1, f.size, 4).transpose(0, 2, 1).reshape(rows, f.size)[rows - width:], zeros


class _Numbers:
    """Texts of a flat array of numbers, all floats or all integers: the
    ``length`` of each, and ``write`` to scatter them into a '0'-filled row
    buffer at given offsets."""

    def __init__(self, values: np.ndarray):
        self.is_float = values.dtype.kind == "f"
        if self.is_float:
            bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
            be = bits >> 52  # sign bit included: 1..0x7FE for positive normals
            special = (bits != 0) & ((be == 0) | (be >= 0x7FF))
            f, e = _shortest(np.where(special, 1 << 62, bits))  # 2.0 stands in
            zero = special | (bits == 0)
            f[zero] = 0  # prints as 0.0
            e[zero] = 0
        else:
            special = values < 0
            f = np.where(special, 0, values).astype(np.uint64)
            e = 0
        top = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)  # digits of f
        width = int(top.max(initial=1))
        self.digits, zeros = _digits(f, width)
        low = np.minimum(zeros, top - 1)  # 0 prints as one digit
        self.n = n = top - low  # digits printed, 1 for zero
        self.decpt = decpt = e + top  # value = 0.d1d2... 10^decpt
        if self.is_float:
            self.exp = (decpt <= -4) | (decpt > 16)
            fixed = ~self.exp
            # Digit j (0 = most significant) sits at lead + j, one further on
            # from j = split, where the point comes in.
            split = np.where(fixed, np.maximum(decpt, 0), 1)
            lead = np.maximum(1 - decpt, 0) * fixed
            self.power = np.abs(decpt - 1)
            length = np.where(fixed, lead + np.maximum(n, split) + 1 + (n <= split),
                              n + (n > 1) + 4 + (self.power >= 100))
        else:
            split, lead = decpt, 0  # digits only
            length = decpt
        self.ok = ~special
        fallback = np.flatnonzero(special)
        self.fallback = [(i, repr(v)) for i, v in zip(fallback.tolist(),
                                                      values[fallback].tolist())]
        length[fallback] = [len(text) for _, text in self.fallback]
        self.length = length
        # Column c of the digits goes to the value's start + base + c, one
        # further on from column dot; count columns from first are printed.
        self.first = width - top
        self.count = (n * self.ok).astype(np.uintp)
        self.base = lead - width + top
        self.dot = width - top + split

    def write(self, buf: np.ndarray, start: np.ndarray) -> None:
        # Digits not printed go to the spare byte.
        pos, spare = start + self.base - 1, buf.size - 1
        shown = -self.first - 1
        for c, digits in enumerate(self.digits):
            pos += 1 + (self.dot == c)
            shown += 1
            buf[np.where(shown.view(np.uintp) < self.count, pos, spare)] = digits
        if self.is_float:
            n, exp = self.n, self.ok & self.exp
            dot = self.ok & ~(self.exp & (n == 1))
            buf[(start + np.where(self.exp, 1, np.maximum(self.decpt, 1)))[dot]] = _DOT
            at = (start + n + (n > 1))[exp]  # the 'e'
            power = self.power[exp]
            wide = power >= 100
            buf[at] = _E
            buf[at + 1] = np.where(self.decpt[exp] > 0, _PLUS, _MINUS)
            buf[at[wide] + 2] = power[wide] // 100 + _ZERO
            buf[at + 2 + wide] = power // 10 % 10 + _ZERO
            buf[at + 3 + wide] = power % 10 + _ZERO
        for i, text in self.fallback:
            o = int(start[i])
            buf[o:o + len(text)] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def rows_text(columns) -> str:
    """CSV lines, one per row, of ``columns``: equal-length numpy arrays of
    floats or integers, or None for a column left empty.

    Meant for a chunk of rows at a time: memory is about a hundred bytes per
    value.
    """
    columns = [None if c is None else np.asarray(c) for c in columns]
    rows = next(c.size for c in columns if c is not None)
    # Integer columns of one dtype kind are formatted together, which saves
    # fixed costs on short chunks; float columns one at a time, which halves
    # the temporaries of the float path.
    parts: dict = {}
    for i, c in enumerate(columns):
        if c is not None:
            parts.setdefault(i if c.dtype.kind == "f" else c.dtype.kind, []).append(i)
    length = np.zeros((len(columns), rows), dtype=np.intp)
    texts = []
    for idx in parts.values():
        numbers = _Numbers(np.concatenate([columns[i] for i in idx]))
        length[idx] = numbers.length.reshape(len(idx), rows)
        texts.append((idx, numbers))
    width = length + 1  # separators included
    row_end = np.cumsum(width.sum(axis=0))
    start = row_end - np.cumsum(width[::-1], axis=0)[::-1]
    buf = np.full(int(row_end[-1]) + 1, _ZERO, dtype=np.uint8)  # a spare byte at the end
    for idx, numbers in texts:
        numbers.write(buf, start[idx].ravel())
    end = start + length
    buf[end[:-1]] = _COMMA
    buf[end[-1]] = _NEWLINE
    return buf[:-1].tobytes().decode("ascii")
