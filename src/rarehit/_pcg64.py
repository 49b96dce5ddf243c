"""numpy's SeedSequence seeding (a pool of 4 uint32 words) and PCG64 stream
(XSL-RR on a 128-bit LCG), re-implemented on uint32 and uint64 arrays so
that a whole row tile is seeded and stepped at once.

_TileStreams holds one stream per row; the row seeded from s draws exactly
what numpy's Generator(PCG64(s)).random would, a round of up to _CHUNK
uniforms at a time for any subset of the rows.
"""
from __future__ import annotations

from itertools import accumulate

import numpy as np

_CHUNK = 32  # most uniforms per row and round: the width of the jump tables
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MOD128 = 1 << 128
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _halves(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as (high, low) uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


# c steps of the LCG from state s give A_c s + inc G_c, with A_c = M^c and
# G_c = 1 + M + ... + M^(c-1) mod 2^128 (Brown, Random number generation
# with arbitrary strides, 1994); index c-1 holds step c.
_POWERS = [pow(_PCG_MULT, c, _MOD128) for c in range(_CHUNK + 1)]
_JUMP_A = [a[:, None] for a in _halves(_POWERS[1:])]
_JUMP_G = [g[:, None] for g in _halves([g % _MOD128 for g in accumulate(_POWERS[:-1])])]


def _mul128(xh, xl, ah, al):
    """(xh, xl) * (ah, al) mod 2^128 on uint64 halves, broadcasting; the
    product's four 32-bit partial products are summed in place, in three
    arrays of the result's size."""
    x0, x1, a0, a1 = xl & _MASK32, xl >> 32, al & _MASK32, al >> 32
    hi, lo = x1 * a1, x0 * a0
    lo >>= 32  # lo sums the middle 32-bit column until its last line
    t = np.empty_like(hi)
    for x, a in ((x0, a1), (x1, a0)):  # the two cross products
        np.multiply(x, a, out=t)
        lo += t  # these two lines add t & _MASK32: lo stays below 2^34
        t >>= 32
        hi += t
        t <<= 32
        lo -= t
    hi += np.right_shift(lo, 32, out=lo)
    hi += np.multiply(xl, ah, out=t)
    hi += np.multiply(xh, al, out=t)
    return hi, np.multiply(xl, al, out=lo)


def _add128(xh, xl, ah, al):
    """(xh, xl) += (ah, al) mod 2^128, in place."""
    xl += al
    xh += ah
    xh += xl < al  # the carry out of the low half
    return xh, xl


def _seed_sequence_state(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, np.uint64) for each uint64 seed,
    as four uint64 arrays (v0..v3)."""
    hc = 0x43B0D7E5  # the hash constant depends on the call count only

    def hashmix(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * 0x931E8875 & _MASK32
        v = v * hc
        return v ^ (v >> 16)

    def mix(x, y):
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ (r >> 16)

    zero = np.zeros(seeds.size, dtype=np.uint32)
    pool = [hashmix(w) for w in ((seeds & _MASK32).astype(np.uint32),
                                 (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hc, words = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ hc
        hc = hc * 0x58F38DED & _MASK32
        v = v * hc
        words.append((v ^ (v >> 16)).astype(np.uint64))
    return [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]


class _TileStreams:
    """PCG64 streams, one per row of the SeedSequence states v0..v3 (as
    _seed_sequence_state returns them): the row seeded from s draws exactly
    what numpy's Generator(PCG64(s)).random would."""

    def __init__(self, v0, v1, v2, v3):
        inc = (v2 << 1) | (v3 >> 63), (v3 << 1) | 1
        # pcg64_srandom: state = inc (one step from 0), add initstate, step
        h, l = _add128(inc[0].copy(), inc[1].copy(), v0, v1)
        self.hi, self.lo = _add128(*_mul128(h, l, *_halves([_PCG_MULT])), *inc)
        self.gh, self.gl = _mul128(*inc, *_JUMP_G)  # (_CHUNK, rows): step c in row c-1

    def draw(self, rows: np.ndarray, width: int) -> np.ndarray:
        """The next ``width`` uniforms of each listed row, one row each: the
        (rows, width) transpose of a contiguous (width, rows) array, whose
        row c holds every listed row's uniform c."""
        U, hi, lo = [], self.hi[rows], self.lo[rows]
        for c in range(0, width, _CHUNK):
            w = min(_CHUNK, width - c)
            h, l = _add128(*_mul128(hi, lo, _JUMP_A[0][:w], _JUMP_A[1][:w]),
                           self.gh[:w].take(rows, axis=1), self.gl[:w].take(rows, axis=1))
            hi, lo = h[-1].copy(), l[-1].copy()
            l ^= h  # XSL-RR output, then 53-bit double
            h >>= 58
            x = np.right_shift(l, h)
            l <<= np.bitwise_and(np.subtract(64, h, out=h), 63, out=h)
            l |= x
            l >>= 11
            U.append(np.multiply(l, 2.0 ** -53, out=l.view(np.float64)))  # over l
        self.hi[rows], self.lo[rows] = hi, lo
        return (U[0] if len(U) == 1 else np.concatenate(U)).T
